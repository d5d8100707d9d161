//! A scoped worker pool for deterministic fan-out.
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
//! Scheduling is one shared atomic job cursor: each worker claims the next
//! unclaimed index whenever it is free, so no job waits behind a slow one
//! while another worker idles.
//!
//! ```
//! use levioso_support::pool::Pool;
//!
//! let squares = Pool::new(4).run(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-width scoped worker pool.
///
/// The pool owns no threads between calls — each [`Pool::run`] spawns its
/// workers inside a [`std::thread::scope`] and joins them before
/// returning, so borrowed jobs and closures need no `'static` bounds.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

/// The cost the benchmark's traced replay (`perfbench/src/replay.rs`)
/// records for a cell the cache has never measured. Nothing in the
/// workspace reads it; it stays only until that replay stops asking.
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
    /// look up per-job context without moving it into the job list.
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
        if self.threads == 1 || jobs.len() <= 1 {
            return jobs.iter().enumerate().map(|(i, job)| f(i, job)).collect();
        }
        // Relaxed is enough: the read-modify-write hands each index out
        // once, the cursor publishes no data (jobs are shared read-only),
        // and results come back through `join`, which synchronizes.
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs.len());
        slots.resize_with(jobs.len(), || None);
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads.min(jobs.len()))
                .map(|_| {
                    let (next, f) = (&next, &f);
                    scope.spawn(move || {
                        let mut done: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(i) else { break done };
                            done.push((i, f(i, job)));
                        }
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
    use std::time::{Duration, Instant};

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
    fn every_job_runs_exactly_once_under_skewed_runtimes() {
        let counters: Vec<AtomicU64> = (0..129).map(|_| AtomicU64::new(0)).collect();
        Pool::new(5).run(&(0..129usize).collect::<Vec<_>>(), |_, &i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
            if i % 13 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn no_job_waits_behind_a_slow_one() {
        // Job 0 blocks until every other job has run. A pool that fixed
        // each worker's share up front would leave the jobs behind job 0
        // unrun, and the deadline would fail the test instead of hanging.
        let jobs: Vec<usize> = (0..64).collect();
        for threads in [2, 3, 8] {
            let others_done = AtomicUsize::new(0);
            Pool::new(threads).run(&jobs, |i, _| {
                if i > 0 {
                    others_done.fetch_add(1, Ordering::Release);
                    return;
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    let done = others_done.load(Ordering::Acquire);
                    if done == jobs.len() - 1 {
                        break;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "threads={threads}: {done} of {} other jobs ran while job 0 blocked",
                        jobs.len() - 1
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
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
