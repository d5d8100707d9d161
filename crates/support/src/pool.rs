//! A scoped, work-stealing worker pool for deterministic fan-out.
//!
//! Replaces `rayon` for the workspace's narrow need: run a fixed list of
//! independent jobs across `N` OS threads and collect the results **in job
//! order**, so aggregation downstream is bit-identical no matter how many
//! threads ran or which finished first.
//!
//! Design constraints (see DESIGN.md, "Hermetic build policy" and §11):
//!
//! * no external crates — built on [`std::thread::scope`];
//! * deterministic results: job `i`'s output lands in slot `i`, full stop.
//!   Nothing downstream can observe completion order or which worker ran a
//!   job — scheduling affects wall-clock only, never results;
//! * panic transparency: a panic inside a job is re-raised on the calling
//!   thread with its original payload once all workers have drained, so a
//!   failing cell in a parallel sweep reports exactly like a serial one;
//! * `threads == 1` runs inline on the caller (no spawn), which keeps
//!   single-threaded runs trivially debuggable and free of scheduler noise.
//!
//! Scheduling is cost-aware work stealing. [`Pool::run_with_costs`] takes a
//! per-job cost estimate (nanoseconds from prior runs, via the sweep
//! cache): jobs are dealt to per-worker deques largest-first onto the
//! least-loaded queue (LPT), each worker drains its own deque from the
//! front (expensive first), and an idle worker steals from the *back* of
//! the currently longest queue — so paper-tier straggler cells start
//! early instead of serializing the tail, and short cells backfill. With
//! no costs (plain [`Pool::run`]) every job is equal-weight and the deal
//! degenerates to round-robin — still stealable, so long cells never
//! convoy short ones behind a fixed pre-partition.
//!
//! ```
//! use levioso_support::pool::Pool;
//!
//! let squares = Pool::new(4).run(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width scoped worker pool.
///
/// The pool owns no threads between calls — each [`Pool::run`] spawns its
/// workers inside a [`std::thread::scope`] and joins them before
/// returning, so borrowed jobs and closures need no `'static` bounds.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

/// Cost assumed for a job with no estimate: schedule unknowns first, since
/// an unmeasured cell may be arbitrarily large and stragglers hurt most
/// when they start last.
pub const UNKNOWN_COST: u64 = u64::MAX;

impl Pool {
    /// Creates a pool of `threads` workers. Zero is clamped to one.
    pub fn new(threads: usize) -> Self {
        Pool { threads: threads.max(1) }
    }

    /// A pool sized by the `LEVIOSO_THREADS` environment variable, falling
    /// back to the machine's available parallelism (and then to 1) when
    /// it is unset or empty.
    ///
    /// # Panics
    ///
    /// Panics on any other value that is not a positive integer.
    pub fn from_env() -> Self {
        let threads = parse_threads(std::env::var("LEVIOSO_THREADS").ok().as_deref())
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        Pool::new(threads)
    }

    /// The worker count this pool runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every job and returns the outputs **in job order**.
    ///
    /// `f` receives the job's index alongside the job, so callers can
    /// look up per-job context (e.g. a pre-split RNG seed) without
    /// moving it into the job list. All jobs are treated as equal-cost;
    /// see [`Pool::run_with_costs`] to schedule measured stragglers first.
    ///
    /// # Panics
    ///
    /// If any invocation of `f` panics, a panic is re-raised here with its
    /// original payload after all workers finish.
    pub fn run<T, R, F>(&self, jobs: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run_with_costs(jobs, &[], f)
    }

    /// Like [`Pool::run`], with a per-job cost estimate steering the
    /// schedule: expensive jobs are dealt and started first (LPT), idle
    /// workers steal from the longest remaining queue.
    ///
    /// `costs[i]` is job `i`'s estimated cost in arbitrary units
    /// (busy-nanoseconds in practice); missing entries (`costs` shorter
    /// than `jobs`, or an empty slice) default to [`UNKNOWN_COST`], which
    /// sorts first. Costs are advisory: they influence which worker runs a
    /// job and when, **never** the result — outputs land in job order and
    /// are bit-identical for any cost vector and any thread count (pinned
    /// by tests here and by the bench determinism suite).
    ///
    /// # Panics
    ///
    /// Same contract as [`Pool::run`].
    pub fn run_with_costs<T, R, F>(&self, jobs: &[T], costs: &[u64], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if jobs.is_empty() {
            return Vec::new();
        }
        if self.threads == 1 || jobs.len() == 1 {
            return jobs.iter().enumerate().map(|(i, job)| f(i, job)).collect();
        }
        let workers = self.threads.min(jobs.len());
        let queues = deal(jobs.len(), costs, workers);
        // Count of jobs not yet claimed; lets idle workers exit without
        // rescanning every queue once everything is taken.
        let remaining = AtomicUsize::new(jobs.len());
        let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs.len());
        slots.resize_with(jobs.len(), || None);
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let remaining = &remaining;
                    let f = &f;
                    scope.spawn(move || {
                        let mut done: Vec<(usize, R)> = Vec::new();
                        while let Some(i) = claim(queues, w, remaining) {
                            done.push((i, f(i, jobs.get(i).expect("dealt index in range"))));
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(done) => {
                        for (i, r) in done {
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => {
                        // A worker dies with its panicking job; jobs it had
                        // already finished are lost with it and recompute on
                        // the next run. First payload wins.
                        if panic_payload.is_none() {
                            panic_payload = Some(payload);
                        }
                    }
                }
            }
        });
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("job {i} produced no result")))
            .collect()
    }
}

/// Deals job indices to `workers` double-ended queues, largest-first onto
/// the least-loaded queue (longest-processing-time-first). Each queue ends
/// up front-loaded with its biggest jobs; ties (equal cost, equal load)
/// break by index and worker number, so the deal is a pure function of
/// `(len, costs, workers)` — deterministic, though results never depend on
/// it anyway.
fn deal(
    len: usize,
    costs: &[u64],
    workers: usize,
) -> Vec<Mutex<std::collections::VecDeque<usize>>> {
    let cost_of = |i: usize| costs.get(i).copied().unwrap_or(UNKNOWN_COST);
    let mut order: Vec<usize> = (0..len).collect();
    // Stable: equal-cost jobs keep index order, so the uniform-cost deal is
    // plain round-robin by load.
    order.sort_by(|&a, &b| cost_of(b).cmp(&cost_of(a)).then(a.cmp(&b)));
    let mut queues: Vec<std::collections::VecDeque<usize>> =
        (0..workers).map(|_| std::collections::VecDeque::new()).collect();
    let mut load = vec![0u128; workers];
    for i in order {
        let w = (0..workers).min_by_key(|&w| (load[w], w)).expect("at least one worker");
        // Saturate: UNKNOWN_COST jobs shouldn't wrap a queue's load sum.
        load[w] = load[w].saturating_add(cost_of(i) as u128);
        queues[w].push_back(i);
    }
    queues.into_iter().map(Mutex::new).collect()
}

/// Claims the next job index for worker `w`: front of its own queue
/// (largest remaining), else steal from the *back* of the currently
/// longest other queue (that queue's smallest), else `None` when all jobs
/// are claimed. `remaining` is decremented per claim.
fn claim(
    queues: &[Mutex<std::collections::VecDeque<usize>>],
    w: usize,
    remaining: &AtomicUsize,
) -> Option<usize> {
    loop {
        if remaining.load(Ordering::Acquire) == 0 {
            return None;
        }
        if let Some(i) = queues[w].lock().expect("queue lock").pop_front() {
            remaining.fetch_sub(1, Ordering::AcqRel);
            return Some(i);
        }
        // Own queue empty: pick the longest victim queue, steal its back.
        let victim = queues
            .iter()
            .enumerate()
            .filter(|&(v, _)| v != w)
            .map(|(v, q)| (q.lock().expect("queue lock").len(), v))
            .max_by_key(|&(len, v)| (len, usize::MAX - v))
            .filter(|&(len, _)| len > 0)
            .map(|(_, v)| v);
        match victim {
            Some(v) => {
                if let Some(i) = queues[v].lock().expect("queue lock").pop_back() {
                    remaining.fetch_sub(1, Ordering::AcqRel);
                    return Some(i);
                }
                // Raced with the victim draining itself; rescan.
            }
            // Every queue looked empty but `remaining` was nonzero at the
            // top of the loop: a claim was in flight. Rescan; the next
            // iteration's `remaining` check terminates once it lands.
            None => std::hint::spin_loop(),
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// Parses a `LEVIOSO_THREADS` value: unset or empty means "not set"
/// (`None`), a positive integer is the worker count. Anything else
/// panics — `0`, `-3` or `abc` silently using every core would change
/// what a timed run measures (same contract as `LEVIOSO_SCALE` and
/// `LEVIOSO_SWEEP_CACHE`).
fn parse_threads(value: Option<&str>) -> Option<usize> {
    match value {
        None | Some("") => None,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Some(n),
            _ => panic!(
                "unknown LEVIOSO_THREADS value {v:?}: expected unset, empty, or a positive integer"
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn empty_job_list_yields_empty_results() {
        for threads in [1, 4] {
            let out: Vec<u64> = Pool::new(threads).run(&[] as &[u64], |_, &x| x);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn results_arrive_in_job_order_for_any_width() {
        let jobs: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = jobs.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 8, 200] {
            let got = Pool::new(threads).run(&jobs, |i, &x| {
                assert_eq!(i, x, "index matches job position");
                x * 3 + 1
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn costs_never_change_results() {
        let jobs: Vec<usize> = (0..64).collect();
        let expect: Vec<usize> = jobs.iter().map(|&x| x * x).collect();
        // Ascending, descending, uniform, partial, empty — all identical.
        let ascending: Vec<u64> = (0..64).map(|i| i as u64 * 100).collect();
        let descending: Vec<u64> = (0..64).map(|i| (64 - i) as u64 * 100).collect();
        let costs: [&[u64]; 5] = [&[], &[7; 64], &ascending, &descending, &ascending[..10]];
        for threads in [1, 3, 8] {
            for cost in costs {
                let got = Pool::new(threads).run_with_costs(&jobs, cost, |_, &x| x * x);
                assert_eq!(got, expect, "threads={threads} costs={:?}...", cost.first());
            }
        }
    }

    #[test]
    fn lpt_deal_frontloads_expensive_jobs() {
        // Costs: job 0 is huge, rest tiny. With 2 workers the huge job
        // must sit alone at the front of one queue.
        let costs = [1_000_000u64, 1, 1, 1, 1, 1];
        let queues = deal(6, &costs, 2);
        let q0: Vec<usize> = queues[0].lock().unwrap().iter().copied().collect();
        let q1: Vec<usize> = queues[1].lock().unwrap().iter().copied().collect();
        assert_eq!(q0, vec![0], "huge job dealt alone to the first queue");
        assert_eq!(q1, vec![1, 2, 3, 4, 5], "small jobs balance onto the other");
    }

    #[test]
    fn unknown_costs_schedule_first() {
        // Jobs beyond the cost slice get UNKNOWN_COST and are dealt before
        // every measured job.
        let costs = [50u64, 40];
        let queues = deal(4, &costs, 1);
        let q: Vec<usize> = queues[0].lock().unwrap().iter().copied().collect();
        assert_eq!(q, vec![2, 3, 0, 1]);
    }

    #[test]
    fn threads_env_parsing_is_strict() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert_eq!(parse_threads(Some("12")), Some(12));
        for bad in ["0", "-3", "abc", " 2", "2.0"] {
            assert!(std::panic::catch_unwind(|| parse_threads(Some(bad))).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run(&[5u64], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        Pool::new(7).run(&(0..64usize).collect::<Vec<_>>(), |_, &i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn every_job_runs_exactly_once_under_skewed_costs() {
        let counters: Vec<AtomicU64> = (0..129).map(|_| AtomicU64::new(0)).collect();
        let costs: Vec<u64> = (0..129).map(|i| if i % 13 == 0 { 1_000_000 } else { i }).collect();
        Pool::new(5).run_with_costs(&(0..129usize).collect::<Vec<_>>(), &costs, |_, &i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
            // Skew actual runtimes too, so stealing genuinely happens.
            if i % 13 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).run(&(0..32usize).collect::<Vec<_>>(), |_, &i| {
                if i == 13 {
                    panic!("cell 13 exploded");
                }
                i
            });
        });
        let payload = result.expect_err("panic must cross the pool boundary");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(message.contains("cell 13 exploded"), "payload preserved: {message:?}");
    }

    #[test]
    fn inline_path_panic_propagates_too() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(1).run(&[0u8], |_, _| panic!("inline boom"));
        });
        assert!(result.is_err());
    }
}
