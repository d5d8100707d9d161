//! Branch-dependency annotations — the compiler-to-hardware channel.
//!
//! Levioso's software half computes, for every static instruction, the set
//! of static branches whose outcomes the instruction *truly* depends on
//! (control dependence plus data dependence on control-dependent producers).
//! This module defines the binary-side representation of that information:
//! it lives in the ISA crate because it is part of the program image the
//! hardware consumes, exactly like the paper's ISA hint encoding.

/// The set of static branches one instruction truly depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepSet {
    /// Exact dependency set: instruction indices of conditional branches and
    /// indirect jumps, each strictly less than `u32::MAX`, sorted ascending.
    ///
    /// An empty vector means the instruction depends on *no* branch and may
    /// always execute under Levioso.
    Exact(Vec<u32>),
    /// Conservative fallback: depend on every older in-flight branch.
    ///
    /// Emitted when analysis precision is exhausted (irreducible control
    /// flow, or the hint encoding budget is exceeded). Semantically
    /// identical to what a hardware-only comprehensive scheme assumes for
    /// every instruction.
    AllOlder,
}

impl DepSet {
    /// The empty (always-safe) dependency set.
    pub const fn empty() -> Self {
        DepSet::Exact(Vec::new())
    }

    /// Whether this is an exact, empty set.
    pub fn is_empty_exact(&self) -> bool {
        matches!(self, DepSet::Exact(v) if v.is_empty())
    }

    /// Whether the set (interpreted at instruction `idx`) includes the
    /// static branch at `branch_idx`.
    pub fn contains(&self, branch_idx: u32) -> bool {
        match self {
            DepSet::Exact(v) => v.binary_search(&branch_idx).is_ok(),
            DepSet::AllOlder => true,
        }
    }
}

impl Default for DepSet {
    fn default() -> Self {
        DepSet::empty()
    }
}

/// Per-instruction branch-dependency annotations for a whole program.
///
/// `sets[i]` is the dependency set of instruction `i`. Produced by
/// `levioso_compiler::annotate`; consumed by the Levioso hardware policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Annotations {
    sets: Vec<DepSet>,
}

impl Annotations {
    /// Creates annotations from per-instruction sets.
    ///
    /// # Panics
    ///
    /// Panics if any exact set is unsorted or contains duplicates.
    pub fn new(sets: Vec<DepSet>) -> Self {
        for (i, s) in sets.iter().enumerate() {
            if let DepSet::Exact(v) = s {
                assert!(
                    v.windows(2).all(|w| w[0] < w[1]),
                    "dependency set of instruction {i} is not sorted/deduped: {v:?}"
                );
            }
        }
        Annotations { sets }
    }

    /// Fully conservative annotations (`AllOlder` everywhere) for a program
    /// of `len` instructions. Running Levioso with these degenerates to the
    /// hardware-only comprehensive baseline.
    pub fn all_older(len: usize) -> Self {
        Annotations { sets: vec![DepSet::AllOlder; len] }
    }

    /// Fully permissive annotations (empty sets everywhere). **Unsound** for
    /// defense purposes; used by failure-injection tests.
    pub fn all_empty(len: usize) -> Self {
        Annotations { sets: vec![DepSet::empty(); len] }
    }

    /// Number of annotated instructions.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether there are no annotated instructions.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Dependency set of instruction `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn deps_of(&self, idx: usize) -> &DepSet {
        &self.sets[idx]
    }

    /// Iterates over `(instruction index, dependency set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &DepSet)> {
        self.sets.iter().enumerate()
    }

    /// Summary statistics used by the annotation-cost experiment (T3).
    pub fn cost(&self) -> AnnotationCost {
        let mut exact_deps = 0usize;
        let mut max_deps = 0usize;
        let mut all_older = 0usize;
        let mut nonempty = 0usize;
        let mut bits = 0u64;
        for s in &self.sets {
            match s {
                DepSet::Exact(v) => {
                    exact_deps += v.len();
                    max_deps = max_deps.max(v.len());
                    if !v.is_empty() {
                        nonempty += 1;
                    }
                    // Encoding model: a 4-bit count, then each dependency as
                    // a LEB128-style backward distance in 8-bit groups
                    // (7 payload bits + 1 continuation bit).
                    bits += 4;
                    for &_d in v {
                        bits += 8; // one group covers distances up to 127,
                                   // which all suite programs fit in; the
                                   // capped() API models tighter budgets.
                    }
                }
                DepSet::AllOlder => {
                    all_older += 1;
                    bits += 4; // sentinel count value
                }
            }
        }
        AnnotationCost {
            instructions: self.sets.len(),
            exact_deps,
            max_deps,
            all_older,
            nonempty,
            total_bits: bits,
        }
    }

    /// Returns annotations with every exact set larger than `max_deps`
    /// replaced by [`DepSet::AllOlder`] — modelling a finite hint-encoding
    /// budget. This is always a *sound* coarsening.
    pub fn capped(&self, max_deps: usize) -> Annotations {
        Annotations {
            sets: self
                .sets
                .iter()
                .map(|s| match s {
                    DepSet::Exact(v) if v.len() > max_deps => DepSet::AllOlder,
                    other => other.clone(),
                })
                .collect(),
        }
    }
}

/// Aggregate annotation-size statistics (experiment T3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnotationCost {
    /// Number of annotated static instructions.
    pub instructions: usize,
    /// Total exact dependencies across all instructions.
    pub exact_deps: usize,
    /// Largest exact dependency set.
    pub max_deps: usize,
    /// Instructions annotated with the conservative fallback.
    pub all_older: usize,
    /// Instructions with a non-empty exact set.
    pub nonempty: usize,
    /// Total hint bits under the reference encoding model.
    pub total_bits: u64,
}

impl AnnotationCost {
    /// Mean hint bits per instruction.
    pub fn bits_per_instr(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.instructions as f64
        }
    }

    /// Mean exact dependencies per instruction.
    pub fn deps_per_instr(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.exact_deps as f64 / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_empty() {
        let s = DepSet::Exact(vec![2, 5, 9]);
        assert!(s.contains(5));
        assert!(!s.contains(4));
        assert!(DepSet::AllOlder.contains(123));
        assert!(DepSet::empty().is_empty_exact());
        assert!(!s.is_empty_exact());
    }

    #[test]
    #[should_panic]
    fn unsorted_set_rejected() {
        let _ = Annotations::new(vec![DepSet::Exact(vec![5, 2])]);
    }

    #[test]
    fn capped_coarsens_to_all_older() {
        let a = Annotations::new(vec![
            DepSet::Exact(vec![0, 1, 2]),
            DepSet::Exact(vec![7]),
            DepSet::AllOlder,
        ]);
        let c = a.capped(2);
        assert_eq!(*c.deps_of(0), DepSet::AllOlder);
        assert_eq!(*c.deps_of(1), DepSet::Exact(vec![7]));
        assert_eq!(*c.deps_of(2), DepSet::AllOlder);
    }

    #[test]
    fn cost_accounting() {
        let a = Annotations::new(vec![
            DepSet::Exact(vec![0, 3]),
            DepSet::Exact(vec![]),
            DepSet::AllOlder,
        ]);
        let c = a.cost();
        assert_eq!(c.instructions, 3);
        assert_eq!(c.exact_deps, 2);
        assert_eq!(c.max_deps, 2);
        assert_eq!(c.all_older, 1);
        assert_eq!(c.nonempty, 1);
        assert_eq!(c.total_bits, 4 + 16 + 4 + 4);
        assert!(c.bits_per_instr() > 0.0);
    }

    #[test]
    fn constructors() {
        let a = Annotations::all_older(3);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|(_, s)| *s == DepSet::AllOlder));
        let e = Annotations::all_empty(2);
        assert!(e.iter().all(|(_, s)| s.is_empty_exact()));
    }
}
