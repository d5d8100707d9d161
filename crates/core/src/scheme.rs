//! Scheme registry: one enum naming every evaluated configuration, with
//! the glue to prepare a program (annotation flavour) and run it.

use crate::baselines::{CommitDelay, DelayOnMiss, ExecuteDelay, Fence, Stt};
use crate::levioso::{Levioso, LeviosoVariant};
use levioso_compiler::{annotate_with, AnnotateConfig};
use levioso_isa::Program;
use levioso_uarch::{CoreConfig, SimError, SimStats, Simulator, SpeculationPolicy, UnsafeBaseline};

/// Every scheme in the evaluation, including ablation variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Unprotected out-of-order baseline (normalization point).
    Unsafe,
    /// Fence after every branch.
    Fence,
    /// Delay-on-Miss (cache channel only).
    DelayOnMiss,
    /// STT-style taint tracking (sandbox model only).
    Stt,
    /// Comprehensive delay-until-commit (≈51 % class prior defense).
    CommitDelay,
    /// Comprehensive delay-until-execute (≈43 % class prior defense).
    ExecuteDelay,
    /// Levioso: compiler-informed true dependencies, hardware dataflow
    /// propagation (the paper's scheme).
    Levioso,
    /// Ablation: fully static annotation (control + static dataflow
    /// closure), no hardware propagation.
    LeviosoStatic,
    /// Ablation (deliberately **unsound**): control-dependence annotation
    /// only, no dataflow closure anywhere. Exists to demonstrate why data
    /// dependencies must be covered.
    LeviosoCtrlOnly,
}

impl Scheme {
    /// All schemes, in report order.
    pub const ALL: [Scheme; 9] = [
        Scheme::Unsafe,
        Scheme::Fence,
        Scheme::DelayOnMiss,
        Scheme::Stt,
        Scheme::CommitDelay,
        Scheme::ExecuteDelay,
        Scheme::Levioso,
        Scheme::LeviosoStatic,
        Scheme::LeviosoCtrlOnly,
    ];

    /// The schemes shown in the headline overhead figure (F2).
    pub const HEADLINE: [Scheme; 6] = [
        Scheme::Unsafe,
        Scheme::Fence,
        Scheme::DelayOnMiss,
        Scheme::CommitDelay,
        Scheme::ExecuteDelay,
        Scheme::Levioso,
    ];

    /// Short name used in tables and figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Unsafe => "unsafe",
            Scheme::Fence => "fence",
            Scheme::DelayOnMiss => "delay-on-miss",
            Scheme::Stt => "stt",
            Scheme::CommitDelay => "commit-delay",
            Scheme::ExecuteDelay => "execute-delay",
            Scheme::Levioso => "levioso",
            Scheme::LeviosoStatic => "levioso-static",
            Scheme::LeviosoCtrlOnly => "levioso-ctrl-only",
        }
    }

    /// Whether the scheme claims *comprehensive* secure speculation (both
    /// speculatively and non-speculatively loaded secrets, all modelled
    /// channels).
    pub fn comprehensive(self) -> bool {
        matches!(
            self,
            Scheme::Fence
                | Scheme::CommitDelay
                | Scheme::ExecuteDelay
                | Scheme::Levioso
                | Scheme::LeviosoStatic
        )
    }

    /// Instantiates the policy object.
    pub fn policy(self) -> Box<dyn SpeculationPolicy> {
        match self {
            Scheme::Unsafe => Box::new(UnsafeBaseline),
            Scheme::Fence => Box::new(Fence),
            Scheme::DelayOnMiss => Box::new(DelayOnMiss),
            Scheme::Stt => Box::new(Stt),
            Scheme::CommitDelay => Box::new(CommitDelay),
            Scheme::ExecuteDelay => Box::new(ExecuteDelay),
            Scheme::Levioso => Box::new(Levioso::new()),
            Scheme::LeviosoStatic => {
                Box::new(Levioso::with_variant(LeviosoVariant::AnnotationOnly))
            }
            Scheme::LeviosoCtrlOnly => Box::new(Levioso::with_variant(LeviosoVariant::ControlOnly)),
        }
    }

    /// The annotation configuration this scheme's program must be compiled
    /// with, or `None` if annotations are not consulted.
    pub fn annotation_config(self) -> Option<AnnotateConfig> {
        match self {
            Scheme::Levioso | Scheme::LeviosoCtrlOnly => {
                Some(AnnotateConfig { static_dataflow: false })
            }
            Scheme::LeviosoStatic => Some(AnnotateConfig { static_dataflow: true }),
            _ => None,
        }
    }

    /// The annotation flavour [`Scheme::prepare`] gives a program that has
    /// no annotations yet: the scheme's [`Scheme::annotation_config`], or
    /// the default flavour for schemes that do not consult annotations.
    /// Schemes with equal flavours prepare an un-annotated program
    /// identically, so one program run under many schemes needs one
    /// annotation per flavour (two across `Scheme::ALL`).
    pub fn flavour(self) -> AnnotateConfig {
        self.annotation_config().unwrap_or_default()
    }

    /// Ensures `program` carries the annotations this scheme needs:
    /// schemes that consult annotations always re-annotate it with their
    /// [`Scheme::flavour`]; the others annotate it only if it has none.
    ///
    /// Annotating runs the whole compiler pipeline (CFG, post-dominators,
    /// control dependence, dataflow), so it is not cheap: when every cell
    /// side of a `nisec-fuzz` pass prepared its own copy, this was 26 % of
    /// the pass. Callers that run one program under many schemes prepare
    /// it once per flavour and share the result.
    pub fn prepare(self, program: &mut Program) {
        // Non-Levioso schemes don't consult annotations, but the F1
        // motivation counters do; default annotations keep those counters
        // meaningful on every run.
        if self.annotation_config().is_some() || program.annotations.is_none() {
            annotate_with(program, &self.flavour());
        }
    }
}

/// Error returned when parsing an unknown scheme name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError {
    name: String,
}

impl std::fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheme `{}` (expected one of: {})",
            self.name,
            Scheme::ALL.map(|s| s.name()).join(", ")
        )
    }
}

impl std::error::Error for ParseSchemeError {}

impl std::str::FromStr for Scheme {
    type Err = ParseSchemeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::ALL
            .into_iter()
            .find(|sch| sch.name() == s)
            .ok_or_else(|| ParseSchemeError { name: s.to_string() })
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `program` under `scheme` with `config`, preparing annotations and
/// letting `setup` initialize memory/registers before the run.
///
/// # Errors
///
/// Propagates any [`SimError`] from the simulator.
pub fn run_scheme(
    program: &Program,
    scheme: Scheme,
    config: &CoreConfig,
    setup: impl FnOnce(&mut Simulator<'_>),
) -> Result<SimStats, SimError> {
    let mut prepared = program.clone();
    scheme.prepare(&mut prepared);
    let mut sim = Simulator::new(&prepared, config.clone());
    setup(&mut sim);
    sim.run(scheme.policy().as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in Scheme::ALL {
            assert_eq!(s.name().parse::<Scheme>(), Ok(s));
        }
        assert!("nonsense".parse::<Scheme>().is_err());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Scheme::ALL.len());
    }

    #[test]
    fn comprehensiveness_classification() {
        assert!(!Scheme::Unsafe.comprehensive());
        assert!(!Scheme::Stt.comprehensive());
        assert!(!Scheme::DelayOnMiss.comprehensive());
        assert!(Scheme::Levioso.comprehensive());
        assert!(Scheme::CommitDelay.comprehensive());
        assert!(!Scheme::LeviosoCtrlOnly.comprehensive(), "unsound ablation");
    }

    #[test]
    fn prepare_selects_annotation_flavour() {
        let mut p = levioso_isa::assemble("t", "beqz a0, x\nld a1, 0(a2)\nx: halt").unwrap();
        Scheme::Levioso.prepare(&mut p);
        assert!(p.annotations.is_some());
        Scheme::LeviosoStatic.prepare(&mut p);
        assert!(p.annotations.is_some());
    }

    #[test]
    fn flavour_is_what_prepare_gives_an_unannotated_program() {
        let p = levioso_isa::assemble(
            "t",
            "beqz a0, x\nld a1, 0(a2)\nx: add a3, a1, a1\nld a4, 0(a3)\nhalt",
        )
        .unwrap();
        let by_flavour = |cfg: AnnotateConfig| {
            let mut q = p.clone();
            annotate_with(&mut q, &cfg);
            q
        };
        for scheme in Scheme::ALL {
            let mut q = p.clone();
            scheme.prepare(&mut q);
            assert_eq!(q, by_flavour(scheme.flavour()), "{scheme}");
        }
        assert_ne!(
            by_flavour(Scheme::LeviosoStatic.flavour()),
            by_flavour(Scheme::Levioso.flavour()),
            "the two flavours annotate this program differently"
        );
    }

    #[test]
    fn run_scheme_smoke() {
        let p = levioso_isa::assemble("t", "li a0, 5\nhalt").unwrap();
        for scheme in Scheme::ALL {
            let stats =
                run_scheme(&p, scheme, &CoreConfig::default(), |_| {}).expect("run succeeds");
            assert_eq!(stats.committed, 2, "{scheme} commits both instructions");
        }
    }
}
