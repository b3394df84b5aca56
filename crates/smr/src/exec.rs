//! Deterministic parallel execution: lane planning and the execute pool.
//!
//! After the ordering core is pipelined (α instances in flight) and PERSIST
//! completes out of order, EXECUTE is the last sequential stage — every
//! ordered batch flows through the application one transaction at a time.
//! This module lifts that ceiling the way the paper's verify stage does,
//! but *deterministically*: application state is partitioned into N
//! execution lanes, each transaction's read/write set is derived statically
//! (see [`crate::app::Application::lane_hint`]), and a batch is compiled
//! into a [`BatchPlan`] — runs of single-lane transactions that execute
//! concurrently, separated by serial barriers for cross-lane transactions.
//!
//! Determinism is by construction, not by locking:
//!
//! * two transactions on the **same** lane keep their original batch order
//!   (within-lane lists are built in order);
//! * two transactions on **different** lanes in the same parallel group
//!   touch disjoint state, so their execution order is unobservable;
//! * a **cross-lane** transaction is a barrier: everything before it
//!   completes first, it runs alone, then the next group forms.
//!
//! Results are re-emitted in original batch order, so blocks, result
//! hashes and state roots are bit-for-bit independent of the lane count —
//! and of whether lanes run on a real [`ExecPool`] or are merely *charged*
//! as critical-path virtual time (simulator; the deployed replica is serial).

use crate::app::Application;
use crate::types::Request;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Where a transaction's statically derived read/write set lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneHint {
    /// Every touched key maps to this lane (`< lanes`): the transaction can
    /// run concurrently with transactions on other lanes.
    Single(usize),
    /// The transaction touches several lanes (or its footprint cannot be
    /// derived): it executes alone, as a barrier between parallel groups.
    Cross,
}

/// Per-batch conflict accounting, accumulated across batches by the
/// embedding layer (harness counters, `bench_check` observability).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConflictStats {
    /// Batches planned.
    pub batches: u64,
    /// Transactions whose footprint stayed on one lane.
    pub single_lane_txs: u64,
    /// Cross-lane transactions (each one a serial barrier).
    pub cross_lane_txs: u64,
    /// Parallel groups emitted (runs of concurrently executable txs).
    pub parallel_groups: u64,
    /// Sum over groups of the critical-path length: the longest lane of
    /// each parallel group plus one per barrier. This is what EXECUTE
    /// costs with enough cores — the simulator charges
    /// `execute_ns * critical_path_txs` instead of `execute_ns * txs`.
    pub critical_path_txs: u64,
}

impl ConflictStats {
    /// Folds another accumulator (or one batch's stats) into this one.
    pub fn absorb(&mut self, other: &ConflictStats) {
        self.batches += other.batches;
        self.single_lane_txs += other.single_lane_txs;
        self.cross_lane_txs += other.cross_lane_txs;
        self.parallel_groups += other.parallel_groups;
        self.critical_path_txs += other.critical_path_txs;
    }

    /// Total transactions planned.
    pub fn planned_txs(&self) -> u64 {
        self.single_lane_txs + self.cross_lane_txs
    }
}

/// One phase of a batch plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanGroup {
    /// Per-lane transaction indices (into the planned slice), each lane's
    /// list in original batch order, lanes mutually disjoint in state.
    Parallel(Vec<Vec<usize>>),
    /// A cross-lane transaction executing alone.
    Serial(usize),
}

/// An ordered batch compiled into parallel groups and serial barriers.
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// Lane count the plan was built for.
    pub lanes: usize,
    /// Phases, in execution order.
    pub groups: Vec<PlanGroup>,
    /// This batch's conflict accounting (`batches == 1`).
    pub stats: ConflictStats,
}

/// Compiles one batch's lane hints into a [`BatchPlan`].
///
/// Walks the transactions in order: single-lane transactions accumulate
/// into the current parallel group (on their lane, preserving order);
/// a cross-lane transaction seals the group and becomes a serial barrier.
pub fn plan_batch(hints: &[LaneHint], lanes: usize) -> BatchPlan {
    let lanes = lanes.max(1);
    let mut groups = Vec::new();
    let mut current: Vec<Vec<usize>> = vec![Vec::new(); lanes];
    let mut open = false;
    let mut stats = ConflictStats {
        batches: 1,
        ..ConflictStats::default()
    };
    fn seal(
        current: &mut Vec<Vec<usize>>,
        open: &mut bool,
        groups: &mut Vec<PlanGroup>,
        stats: &mut ConflictStats,
        lanes: usize,
    ) {
        if *open {
            let longest = current.iter().map(Vec::len).max().unwrap_or(0) as u64;
            stats.parallel_groups += 1;
            stats.critical_path_txs += longest;
            groups.push(PlanGroup::Parallel(std::mem::replace(
                current,
                vec![Vec::new(); lanes],
            )));
            *open = false;
        }
    }
    for (index, hint) in hints.iter().enumerate() {
        match hint {
            LaneHint::Single(lane) => {
                current[lane % lanes].push(index);
                open = true;
                stats.single_lane_txs += 1;
            }
            LaneHint::Cross => {
                seal(&mut current, &mut open, &mut groups, &mut stats, lanes);
                groups.push(PlanGroup::Serial(index));
                stats.cross_lane_txs += 1;
                stats.critical_path_txs += 1;
            }
        }
    }
    seal(&mut current, &mut open, &mut groups, &mut stats, lanes);
    BatchPlan {
        lanes,
        groups,
        stats,
    }
}

/// Executes a planned batch against an application, via
/// [`Application::execute_group`] for parallel groups and plain
/// [`Application::execute`] for barriers. `requests` is the planned slice
/// (plan indices index into it); results come back aligned with it.
///
/// The simulator calls it with `pool = None` (lanes are charged as virtual
/// time); the coin lane tests and the benchmark's execution probes also
/// run it on a real [`ExecPool`].
pub fn run_plan<A: Application + ?Sized>(
    app: &mut A,
    requests: &[&Request],
    plan: &BatchPlan,
    pool: Option<&ExecPool>,
) -> Vec<Vec<u8>> {
    let mut results: Vec<Option<Vec<u8>>> = vec![None; requests.len()];
    for group in &plan.groups {
        match group {
            PlanGroup::Serial(index) => {
                results[*index] = Some(app.execute(requests[*index]));
            }
            PlanGroup::Parallel(lanes) => {
                let group: Vec<Vec<(usize, &Request)>> = lanes
                    .iter()
                    .map(|idxs| idxs.iter().map(|&i| (i, requests[i])).collect())
                    .collect();
                for (index, result) in app.execute_group(&group, pool) {
                    results[index] = Some(result);
                }
            }
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("plan covers every planned request"))
        .collect()
}

/// A boxed unit of work for the pool.
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

type Task = Box<dyn FnOnce() + Send>;

/// A minimal multi-producer multi-consumer task queue (std has only MPSC) —
/// same shape as the verify pool's queue in `smartchain-crypto`.
struct TaskQueue {
    state: Mutex<(VecDeque<Task>, bool)>,
    ready: Condvar,
}

impl TaskQueue {
    fn new() -> TaskQueue {
        TaskQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, task: Task) {
        let mut st = self.state.lock().expect("exec queue lock");
        st.0.push_back(task);
        self.ready.notify_one();
    }

    /// Blocks until a task is available; `None` once closed and drained.
    fn pop(&self) -> Option<Task> {
        let mut st = self.state.lock().expect("exec queue lock");
        loop {
            if let Some(task) = st.0.pop_front() {
                return Some(task);
            }
            if st.1 {
                return None;
            }
            st = self.ready.wait(st).expect("exec queue lock");
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("exec queue lock");
        st.1 = true;
        self.ready.notify_all();
    }
}

/// A fixed-size pool of execution workers — the wall-clock backend of the
/// parallel EXECUTE stage, mirroring [`smartchain_crypto::pool::VerifyPool`]:
/// persistent worker threads over an MPMC queue, results collected in job
/// order per call.
///
/// # Examples
///
/// ```
/// use smartchain_smr::exec::{ExecPool, Job};
///
/// let pool = ExecPool::new(4);
/// let jobs: Vec<Job<u64>> = (0..8u64).map(|i| Box::new(move || i * i) as Job<u64>).collect();
/// assert_eq!(pool.run(jobs), vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub struct ExecPool {
    tasks: Arc<TaskQueue>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ExecPool {
    /// Spawns a pool with `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> ExecPool {
        assert!(workers > 0, "pool needs at least one worker");
        let tasks = Arc::new(TaskQueue::new());
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let queue = Arc::clone(&tasks);
            handles.push(std::thread::spawn(move || {
                while let Some(task) = queue.pop() {
                    task();
                }
            }));
        }
        ExecPool {
            tasks,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `jobs` on the workers, returning their outputs in job order.
    /// Blocks until every job completed.
    pub fn run<T: Send + 'static>(&self, jobs: Vec<Job<T>>) -> Vec<T> {
        let n = jobs.len();
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for (index, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            self.tasks.push(Box::new(move || {
                let _ = tx.send((index, job()));
            }));
        }
        drop(tx);
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (index, value) = rx.recv().expect("exec worker alive while pool exists");
            out[index] = Some(value);
        }
        out.into_iter()
            .map(|v| v.expect("every job reports once"))
            .collect()
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        self.tasks.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(hints: &[LaneHint], lanes: usize) -> BatchPlan {
        plan_batch(hints, lanes)
    }

    #[test]
    fn all_single_lane_is_one_parallel_group() {
        use LaneHint::Single;
        let p = plan(&[Single(0), Single(1), Single(0), Single(3)], 4);
        assert_eq!(p.groups.len(), 1);
        let PlanGroup::Parallel(lanes) = &p.groups[0] else {
            panic!("expected parallel group");
        };
        assert_eq!(lanes[0], vec![0, 2], "within-lane order preserved");
        assert_eq!(lanes[1], vec![1]);
        assert_eq!(lanes[3], vec![3]);
        assert_eq!(p.stats.single_lane_txs, 4);
        assert_eq!(p.stats.cross_lane_txs, 0);
        assert_eq!(p.stats.parallel_groups, 1);
        assert_eq!(p.stats.critical_path_txs, 2, "longest lane has 2 txs");
    }

    #[test]
    fn cross_lane_tx_is_a_barrier() {
        use LaneHint::{Cross, Single};
        let p = plan(&[Single(0), Single(1), Cross, Single(0), Single(0)], 2);
        assert_eq!(p.groups.len(), 3);
        assert!(matches!(&p.groups[0], PlanGroup::Parallel(_)));
        assert_eq!(p.groups[1], PlanGroup::Serial(2));
        let PlanGroup::Parallel(after) = &p.groups[2] else {
            panic!("expected trailing parallel group");
        };
        assert_eq!(after[0], vec![3, 4]);
        // Critical path: max(1,1) + 1 (barrier) + 2 (lane 0 run).
        assert_eq!(p.stats.critical_path_txs, 4);
        assert_eq!(p.stats.parallel_groups, 2);
        assert_eq!(p.stats.cross_lane_txs, 1);
    }

    #[test]
    fn all_cross_degrades_to_serial_cost() {
        let hints = vec![LaneHint::Cross; 5];
        let p = plan(&hints, 8);
        assert_eq!(p.groups.len(), 5);
        assert_eq!(p.stats.critical_path_txs, 5, "no cheaper than serial");
        assert_eq!(p.stats.parallel_groups, 0);
    }

    #[test]
    fn empty_batch_plans_empty() {
        let p = plan(&[], 4);
        assert!(p.groups.is_empty());
        assert_eq!(p.stats.critical_path_txs, 0);
        assert_eq!(p.stats.batches, 1);
    }

    #[test]
    fn out_of_range_lane_wraps() {
        let p = plan(&[LaneHint::Single(7)], 2);
        let PlanGroup::Parallel(lanes) = &p.groups[0] else {
            panic!("expected parallel group");
        };
        assert_eq!(lanes[7 % 2], vec![0]);
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut acc = ConflictStats::default();
        acc.absorb(&plan(&[LaneHint::Single(0), LaneHint::Cross], 2).stats);
        acc.absorb(&plan(&[LaneHint::Single(1)], 2).stats);
        assert_eq!(acc.batches, 2);
        assert_eq!(acc.single_lane_txs, 2);
        assert_eq!(acc.cross_lane_txs, 1);
        assert_eq!(acc.planned_txs(), 3);
    }

    #[test]
    fn pool_returns_results_in_job_order() {
        let pool = ExecPool::new(3);
        let jobs: Vec<Job<usize>> = (0..64usize)
            .map(|i| {
                Box::new(move || {
                    // Vary the work so completion order differs from job order.
                    let mut acc = i;
                    for _ in 0..((64 - i) * 50) {
                        acc = acc.wrapping_mul(31).wrapping_add(7);
                    }
                    std::hint::black_box(acc);
                    i
                }) as Job<usize>
            })
            .collect();
        assert_eq!(pool.run(jobs), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn pool_reusable_across_runs() {
        let pool = ExecPool::new(2);
        for round in 0..3u64 {
            let jobs: Vec<Job<u64>> = (0..8u64)
                .map(|i| Box::new(move || round * 100 + i) as Job<u64>)
                .collect();
            let out = pool.run(jobs);
            assert_eq!(out[7], round * 100 + 7);
        }
    }

    #[test]
    fn pool_handles_empty_run() {
        let pool = ExecPool::new(2);
        assert!(pool.run(Vec::<Job<u8>>::new()).is_empty());
    }

    #[test]
    fn pool_actually_runs_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = ExecPool::new(2);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job<()>> = (0..2)
            .map(|_| {
                let in_flight = Arc::clone(&in_flight);
                let peak = Arc::clone(&peak);
                Box::new(move || {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                }) as Job<()>
            })
            .collect();
        pool.run(jobs);
        assert_eq!(peak.load(Ordering::SeqCst), 2, "both lanes ran at once");
    }
}
