//! The parallel sweep executor.
//!
//! Every experiment in this crate decomposes into independent *cells* — one
//! `(workload, scheme, config)` simulation each — whose results are then
//! aggregated in a fixed report order. [`Sweep`] fans those cells out
//! across a [`levioso_support::Pool`] and guarantees the aggregate is
//! **bit-identical regardless of thread count or completion order**:
//!
//! * cell outputs come back in cell order ([`Pool::run`]'s contract), so
//!   aggregation never observes scheduling;
//! * every cell gets its own RNG, derived by [`Xoshiro256pp::split`] from
//!   the sweep's master seed *in cell order before any worker starts*, so
//!   a cell's random stream depends only on its position in the sweep,
//!   never on which thread ran it or what ran before it on that thread.
//!
//! The simulator itself is fully deterministic, so today the per-cell
//! stream is consulted only by cells that inject randomized inputs; it
//! exists so that when a cell *does* need randomness, `--threads 1` and
//! `--threads 8` still produce the same bits.

use levioso_support::{Pool, Xoshiro256pp};

/// Master seed every sweep derives per-cell streams from by default.
pub const DEFAULT_SEED: u64 = 0x1e71_0500_5eed_2024;

/// A deterministic parallel executor for sweep cells.
#[derive(Debug, Clone)]
pub struct Sweep {
    pool: Pool,
    master_seed: u64,
}

impl Sweep {
    /// A sweep over `threads` worker threads (0 clamps to 1).
    pub fn new(threads: usize) -> Self {
        Sweep { pool: Pool::new(threads), master_seed: DEFAULT_SEED }
    }

    /// A sweep sized by `LEVIOSO_THREADS`, falling back to the machine's
    /// available parallelism.
    pub fn from_env() -> Self {
        Sweep { pool: Pool::from_env(), master_seed: DEFAULT_SEED }
    }

    /// Replaces the master seed the per-cell streams derive from.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// The worker count this sweep runs with.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs `f` over every cell in parallel; results in cell order.
    ///
    /// `f` receives the cell plus its pre-split RNG. Panics inside a cell
    /// propagate to the caller with their original payload.
    pub fn map<T, R, F>(&self, cells: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, &mut Xoshiro256pp) -> R + Sync,
    {
        self.map_with_costs(cells, &[], f)
    }

    /// [`Sweep::map`] with per-cell cost estimates steering the schedule
    /// (see [`levioso_support::Pool::run_with_costs`]): expensive cells are
    /// dealt and started first, idle workers steal the tail. Costs are
    /// advisory — outputs are in cell order and bit-identical for any cost
    /// vector and any thread count, and each cell's RNG stream still
    /// depends only on its position (streams are split sequentially before
    /// any worker starts).
    pub fn map_with_costs<T, R, F>(&self, cells: &[T], costs: &[u64], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, &mut Xoshiro256pp) -> R + Sync,
    {
        // Seeds are split sequentially up front — the only part of the
        // pipeline that is order-sensitive — then cells run in any order.
        let mut master = Xoshiro256pp::seed_from_u64(self.master_seed);
        let streams: Vec<Xoshiro256pp> = (0..cells.len()).map(|_| master.split()).collect();
        self.pool.run_with_costs(cells, costs, |i, cell| {
            let mut rng = streams[i].clone();
            f(cell, &mut rng)
        })
    }
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use levioso_support::Rng;

    #[test]
    fn cell_streams_are_independent_of_thread_count() {
        let cells: Vec<usize> = (0..24).collect();
        let draw = |_: &usize, rng: &mut Xoshiro256pp| (rng.next_u64(), rng.next_u64());
        let one = Sweep::new(1).map(&cells, draw);
        let four = Sweep::new(4).map(&cells, draw);
        let eight = Sweep::new(8).map(&cells, draw);
        assert_eq!(one, four);
        assert_eq!(one, eight);
    }

    #[test]
    fn master_seed_changes_every_cell_stream() {
        let cells: Vec<usize> = (0..8).collect();
        let draw = |_: &usize, rng: &mut Xoshiro256pp| rng.next_u64();
        let a = Sweep::new(2).map(&cells, draw);
        let b = Sweep::new(2).with_seed(DEFAULT_SEED ^ 1).map(&cells, draw);
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<u64> = (0..100).collect();
        let got = Sweep::new(5).map(&cells, |&c, _| c * 2);
        assert_eq!(got, (0..100).map(|c| c * 2).collect::<Vec<_>>());
    }
}
