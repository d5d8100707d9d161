//! Simulation statistics.

use crate::cache::CacheStats;

/// Counters collected over one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions committed (includes the final `halt`).
    pub committed: u64,
    /// Instructions fetched (including wrong-path).
    pub fetched: u64,
    /// Instructions dispatched into the ROB (including wrong-path).
    pub dispatched: u64,
    /// Instructions squashed by mispredictions.
    pub squashed: u64,
    /// Control mispredictions (direction or target).
    pub mispredicts: u64,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L2 cache counters.
    pub l2: CacheStats,
    /// Total cycles instructions spent blocked *only* by the active
    /// defense policy (summed over committed instructions).
    pub policy_delay_cycles: u64,
    /// F1 (conservative view): committed instructions whose operands first
    /// became ready while ≥1 older control instruction was unresolved.
    pub ready_while_shadowed: u64,
    /// F1 (true-dependency view): committed instructions whose operands
    /// first became ready while ≥1 of their *true* (Levioso) dependencies
    /// was unresolved.
    pub ready_while_true_dep: u64,
    /// F1 headroom, conservative view: total cycles between each committed
    /// instruction's operand readiness and the resolution of its *last*
    /// older in-flight control instruction (what a hardware-only
    /// comprehensive scheme would wait).
    pub shadow_wait_cycles: u64,
    /// F1 headroom, true-dependency view: same, but only until the last
    /// *true* (Levioso) dependency resolves.
    pub true_wait_cycles: u64,
    /// Cache accesses performed by instructions that were later squashed —
    /// the transient side effects an attacker can observe. A scheme that
    /// claims comprehensive secure speculation must keep this at **zero**
    /// (invisible Delay-on-Miss hits do not count: they change no state).
    pub transient_fills: u64,
}

/// `num / den` as `f64`, defined as 0 when the denominator is 0 — the
/// convention every derived metric here uses for empty runs.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl SimStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        ratio(self.committed, self.cycles)
    }

    /// Transient cache fills per kilo-instruction (committed) — the
    /// side-channel exposure metric (F6).
    pub fn transient_fills_pki(&self) -> f64 {
        ratio(self.transient_fills * 1000, self.committed)
    }

    /// Mispredictions per kilo-instruction (committed).
    pub fn mpki(&self) -> f64 {
        ratio(self.mispredicts * 1000, self.committed)
    }

    /// Mean conservative wait per committed instruction (F1).
    pub fn shadow_wait_per_instr(&self) -> f64 {
        ratio(self.shadow_wait_cycles, self.committed)
    }

    /// Mean true-dependency wait per committed instruction (F1).
    pub fn true_wait_per_instr(&self) -> f64 {
        ratio(self.true_wait_cycles, self.committed)
    }

    /// Fraction of committed instructions under the conservative
    /// speculation shadow at readiness (F1).
    pub fn shadowed_fraction(&self) -> f64 {
        ratio(self.ready_while_shadowed, self.committed)
    }

    /// Fraction of committed instructions with an unresolved *true*
    /// dependency at readiness (F1).
    pub fn true_dep_fraction(&self) -> f64 {
        ratio(self.ready_while_true_dep, self.committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            mispredicts: 5,
            ready_while_shadowed: 200,
            ready_while_true_dep: 50,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.mpki() - 20.0).abs() < 1e-12);
        assert!((s.shadowed_fraction() - 0.8).abs() < 1e-12);
        assert!((s.true_dep_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mpki(), 0.0);
        assert_eq!(s.shadowed_fraction(), 0.0);
    }
}
