//! Process-global simulator throughput accounting.
//!
//! Every simulation cell the bench harness runs — whichever figure it
//! belongs to — reports its simulated work (cycles, retired instructions)
//! and its host *busy* time into a set of process-wide atomic counters.
//! Busy time is measured inside the worker, around one cell's simulation,
//! so the aggregate is comparable across `--threads 1/4/8`: more threads
//! shrink wall-clock but leave per-cell busy time (and thus
//! kilocycles-per-busy-second) essentially unchanged.
//!
//! The `all` driver snapshots these counters at exit and writes
//! `results/BENCH_sim_throughput.json`, the PR-over-PR throughput
//! trajectory of the simulator core (see DESIGN.md "Hot path &
//! performance model").
//!
//! The counters themselves live in the telemetry registry
//! (`levioso_support::metrics`, names `sweep_*_total`): one set of
//! atomics feeds both this module's [`snapshot`] and the
//! `levioso-metrics/2` document, so the throughput-honesty invariant
//! (`cells == misses` under an enabled cache) is checkable against
//! either source. Recording is *not* gated on `LEVIOSO_METRICS` — the
//! meter is load-bearing (perfcheck fails a run with no recorded work).

use levioso_support::metrics::{self, Counter};
use std::sync::OnceLock;
use std::time::Duration;

struct Meters {
    cells: Counter,
    sim_cycles: Counter,
    retired: Counter,
    busy_nanos: Counter,
}

fn meters() -> &'static Meters {
    static METERS: OnceLock<Meters> = OnceLock::new();
    METERS.get_or_init(|| Meters {
        cells: metrics::counter("sweep_cells_total", &[]),
        sim_cycles: metrics::counter("sweep_sim_cycles_total", &[]),
        retired: metrics::counter("sweep_retired_instrs_total", &[]),
        busy_nanos: metrics::counter("sweep_busy_nanos_total", &[]),
    })
}

/// Records one finished simulation cell. Called from inside the sweep
/// worker so `busy` reflects that cell's host time regardless of how many
/// cells ran concurrently.
pub fn record(sim_cycles: u64, retired: u64, busy: Duration) {
    let m = meters();
    m.cells.inc();
    m.sim_cycles.add(sim_cycles);
    m.retired.add(retired);
    m.busy_nanos.add(busy.as_nanos() as u64);
}

/// Zeroes all counters (tests; the binaries snapshot once at exit).
pub fn reset() {
    let m = meters();
    m.cells.reset();
    m.sim_cycles.reset();
    m.retired.reset();
    m.busy_nanos.reset();
}

/// A point-in-time snapshot of the global throughput counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Throughput {
    /// Simulation cells completed.
    pub cells: u64,
    /// Total simulated cycles across all cells.
    pub sim_cycles: u64,
    /// Total retired (committed) instructions across all cells.
    pub retired: u64,
    /// Total host busy nanoseconds spent inside cell simulations.
    pub busy_nanos: u64,
}

impl Throughput {
    /// Host busy time in seconds.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_nanos as f64 / 1e9
    }

    /// Cells completed per host busy second.
    pub fn cells_per_busy_sec(&self) -> f64 {
        per_sec(self.cells as f64, self.busy_nanos)
    }

    /// Simulated kilocycles per host busy second — the headline simulator
    /// throughput number.
    pub fn kilocycles_per_busy_sec(&self) -> f64 {
        per_sec(self.sim_cycles as f64 / 1e3, self.busy_nanos)
    }

    /// Retired instructions per host busy second.
    pub fn retired_per_busy_sec(&self) -> f64 {
        per_sec(self.retired as f64, self.busy_nanos)
    }
}

fn per_sec(amount: f64, busy_nanos: u64) -> f64 {
    if busy_nanos == 0 {
        0.0
    } else {
        amount / (busy_nanos as f64 / 1e9)
    }
}

/// Reads the current counter values.
pub fn snapshot() -> Throughput {
    let m = meters();
    Throughput {
        cells: m.cells.get(),
        sim_cycles: m.sim_cycles.get(),
        retired: m.retired.get(),
        busy_nanos: m.busy_nanos.get(),
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
        assert_eq!(after.retired - before.retired, 500_000);
        assert!(after.busy_nanos - before.busy_nanos >= 2_000_000_000);
        let alone = Throughput {
            cells: 1,
            sim_cycles: 2_000_000,
            retired: 500_000,
            busy_nanos: 2_000_000_000,
        };
        assert!((alone.kilocycles_per_busy_sec() - 1000.0).abs() < 1e-9);
        assert!((alone.cells_per_busy_sec() - 0.5).abs() < 1e-12);
        assert!((alone.retired_per_busy_sec() - 250_000.0).abs() < 1e-6);
    }

    #[test]
    fn zero_busy_time_reports_zero_rates() {
        let t = Throughput { cells: 0, sim_cycles: 0, retired: 0, busy_nanos: 0 };
        assert_eq!(t.kilocycles_per_busy_sec(), 0.0);
        assert_eq!(t.cells_per_busy_sec(), 0.0);
    }
}
