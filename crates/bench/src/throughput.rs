//! Process-global simulator throughput accounting.
//!
//! Every simulation cell the bench harness runs — whichever figure it
//! belongs to — reports its simulated cycles and its host *busy* time
//! into a set of process-wide atomic counters. Busy time is measured
//! inside the worker, around one cell's simulation, so the aggregate is
//! comparable across `--threads 1/4/8`: more threads shrink wall-clock but
//! leave per-cell busy time (and thus kilocycles-per-busy-second)
//! essentially unchanged.
//!
//! The `all` driver prints a snapshot at exit (its `==> sim throughput:`
//! line). Only freshly simulated cells are recorded: a cell served from
//! the sweep cache adds nothing, so on a cold run `cells` equals the perf
//! cache's misses. Host-performance claims are made with the benchmark
//! (`perfbench/`), not with this line.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

static CELLS: AtomicU64 = AtomicU64::new(0);
static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);

/// Records one finished simulation cell. Called from inside the sweep
/// worker so `busy` reflects that cell's host time regardless of how many
/// cells ran concurrently.
///
/// The meter keeps no count of committed instructions; the middle
/// parameter stays because the benchmark's replay of `run_cell`
/// (`perfbench/src/replay.rs`) passes `stats.committed`, and perfbench
/// builds against this signature unedited.
pub fn record(sim_cycles: u64, _committed: u64, busy: Duration) {
    CELLS.fetch_add(1, Relaxed);
    SIM_CYCLES.fetch_add(sim_cycles, Relaxed);
    BUSY_NANOS.fetch_add(busy.as_nanos() as u64, Relaxed);
}

/// A point-in-time snapshot of the global throughput counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Throughput {
    /// Simulation cells completed.
    pub cells: u64,
    /// Total simulated cycles across all cells.
    pub sim_cycles: u64,
    /// Total host busy nanoseconds spent inside cell simulations.
    pub busy_nanos: u64,
}

impl Throughput {
    /// Host busy time in seconds.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_nanos as f64 / 1e9
    }

    /// Simulated kilocycles per host busy second — the headline simulator
    /// throughput number (0 when nothing was simulated).
    pub fn kilocycles_per_busy_sec(&self) -> f64 {
        if self.busy_nanos == 0 {
            0.0
        } else {
            self.sim_cycles as f64 / 1e3 / self.busy_seconds()
        }
    }
}

/// Reads the current counter values.
pub fn snapshot() -> Throughput {
    Throughput {
        cells: CELLS.load(Relaxed),
        sim_cycles: SIM_CYCLES.load(Relaxed),
        busy_nanos: BUSY_NANOS.load(Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_rates_divide_by_busy_time() {
        // Global counters: other tests in this process may also record, so
        // assert on deltas rather than absolute values.
        let before = snapshot();
        record(2_000_000, 500_000, Duration::from_secs(2));
        let after = snapshot();
        assert_eq!(after.cells - before.cells, 1);
        assert_eq!(after.sim_cycles - before.sim_cycles, 2_000_000);
        assert!(after.busy_nanos - before.busy_nanos >= 2_000_000_000);
        let alone = Throughput { cells: 1, sim_cycles: 2_000_000, busy_nanos: 2_000_000_000 };
        assert!((alone.kilocycles_per_busy_sec() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_busy_time_reports_zero_rates() {
        let t = Throughput { cells: 0, sim_cycles: 0, busy_nanos: 0 };
        assert_eq!(t.kilocycles_per_busy_sec(), 0.0);
    }
}
