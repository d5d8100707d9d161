//! The Levioso secure-speculation scheme.
//!
//! A transmit instruction (load or flush) is delayed **only while one of
//! its true branch dependencies is unresolved**. The dependency set is the
//! compiler's per-instruction annotation (control dependence, including the
//! interprocedural call-guard closure), instantiated at rename against the
//! in-flight unresolved branches, and — in the default variant — closed
//! over *dynamic* register dataflow by the rename logic plus
//! store-to-load-forwarding inheritance (`DynInstr::lev_deps`).
//!
//! Unresolved **indirect** jumps are always barriers: the front end may
//! have been steered to an arbitrary target (BTB/RAS mis-speculation,
//! Spectre-v2), where static annotations cannot be trusted; the core adds
//! them to every younger instruction's dependency set.
//!
//! Release point is branch *execution* (not commit): once a branch
//! resolves, either the dependents were on the correct path (and transmit
//! reveals nothing transient) or they are being squashed.

use levioso_uarch::{DynInstr, Release, SpeculationPolicy, Wait};

/// Which dependency set the scheme waits on, and the rule it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeviosoVariant {
    /// Annotation instances **plus** hardware dataflow propagation
    /// (`lev_deps`). The sound default.
    #[default]
    Full,
    /// Annotation instances only (`ann_deps`), no hardware propagation.
    ///
    /// Paired with statically-dataflow-closed annotations this is the
    /// "static Levioso" ablation (F3), sound for programs without
    /// cross-function register flows.
    AnnotationOnly,
    /// The same `ann_deps` wait as [`LeviosoVariant::AnnotationOnly`],
    /// reported under its own rule. Paired with control-only annotations
    /// it is **deliberately unsound** and exists so the failure-injection
    /// tests can demonstrate why dataflow closure is necessary.
    ControlOnly,
}

/// The Levioso policy (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Levioso {
    variant: LeviosoVariant,
}

impl Levioso {
    /// The default (full, sound) configuration.
    pub fn new() -> Self {
        Levioso { variant: LeviosoVariant::Full }
    }

    /// Selects an ablation variant.
    pub fn with_variant(variant: LeviosoVariant) -> Self {
        Levioso { variant }
    }

    /// The active variant.
    pub fn variant(&self) -> LeviosoVariant {
        self.variant
    }
}

impl SpeculationPolicy for Levioso {
    fn needs_annotations(&self) -> bool {
        true
    }

    fn transmit_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        let (rule, deps) = match self.variant {
            LeviosoVariant::Full => ("levioso:true-dep-unresolved", &instr.lev_deps),
            LeviosoVariant::AnnotationOnly => {
                ("levioso-static:ann-dep-unresolved", &instr.ann_deps)
            }
            LeviosoVariant::ControlOnly => {
                ("levioso-ctrl-only:ann-dep-unresolved", &instr.ann_deps)
            }
        };
        Some(Wait { rule, deps, release: Release::Resolve })
    }
}
