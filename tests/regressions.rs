//! Named deterministic regression tests.
//!
//! These inputs were discovered by the property tests (they were checked
//! in as proptest `.proptest-regressions` seed files before the workspace
//! went hermetic). Each one is now an explicit test so the known-bad
//! inputs stay covered forever, with the failure history documented next
//! to the input instead of hidden behind an opaque seed hash.

use levioso::compiler::levi;
use levioso::core::Scheme;
use levioso::isa::{ExecError, Machine};
use levioso::uarch::{CoreConfig, SimError, Simulator};

#[path = "shared/annotation_checks.rs"]
mod annotation_checks;
#[path = "shared/equivalence_checks.rs"]
mod equivalence_checks;

/// Historical shrink from `tests/annotation_props.rs` (proptest seed
/// `09fce406…`): a single-iteration `while` whose body redefines a
/// variable initialized before the loop. The loop back-edge makes the
/// branch *younger* in program order than the body it controls, which
/// once tripped the dependency-direction assumptions in the annotation
/// checks. All three annotation invariants must hold on it.
const LOOP_REDEFINES_PREHEADER_VAR: &str = "arr a @ 0x10000;\nfn main() {\nlet v0 = 1;\nlet v1 = 2;\nlet v2 = 3;\nlet v3 = 0;\nv3 = 0; while (v3 < 1) { v0 = 0; v3 = v3 + 1; }\n}\n";

#[test]
fn annotation_regression_single_iteration_loop() {
    let source = LOOP_REDEFINES_PREHEADER_VAR;
    annotation_checks::check_static_superset_of_control(source);
    annotation_checks::check_capping_coarsens(source);
    annotation_checks::check_deps_reference_branches_only(source);
}

/// Historical shrink from `tests/arch_equivalence.rs` (proptest seed
/// `696ed937…`): nested `while` loops both using `v3` as their counter.
/// The inner loop resets `v3` to 0, so the outer loop's condition
/// `v3 < 10` can never fail — the program **does not halt**. The
/// generator was fixed to never nest loops; this input stays covered to
/// pin down the contract for non-halting programs: the interpreter must
/// stop with a clean step-budget error (not hang, not corrupt state) and
/// every scheme's simulator must stop with a clean cycle-budget error.
const NESTED_LOOPS_SHARING_COUNTER: &str = "arr a @ 1048576;\nfn main() {\nlet v0 = 0;\nlet v1 = 0;\nlet v2 = 0;\nlet v3 = 0;\nv3 = 0; while (v3 < 10) { v3 = 0; while (v3 < 1) { v0 = 0; v3 = v3 + 1; } v3 = v3 + 1; }\na[100] = v0; a[101] = v1; a[102] = v2; a[103] = v3;\n}\n";

/// The preloaded input image the shrink carried (only `a[15..]` nonzero).
const NESTED_LOOPS_DATA: [i64; 64] = [
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -4, 614, 443, -294, 582, -86, 800, -516, -878,
    550, 179, 974, 786, -897, -49, 550, 724, 157, 745, -27, -499, 267, 28, -908, -318, 142, 363,
    -685, -395, -923, 504, -645, 614, -839, -22, -871, 295, -845, -263, 598, -444, -203, 289, 883,
    704, -880, 892, -614, -651,
];

#[test]
fn arch_equivalence_regression_nonhalting_program_fails_cleanly() {
    let program = levi::compile("regression", NESTED_LOOPS_SHARING_COUNTER).expect("compiles");

    // The interpreter hits its step budget and says so.
    let mut machine = Machine::new();
    for (i, &v) in NESTED_LOOPS_DATA.iter().enumerate() {
        machine.mem.write_i64(equivalence_checks::ARRAY + 8 * i as u64, v);
    }
    let budget = 100_000;
    assert_eq!(
        machine.run(&program, budget),
        Err(ExecError::StepLimit { max_steps: budget }),
        "non-halting program must exhaust the step budget"
    );

    // Every scheme's simulator hits its cycle budget and says so — no
    // hangs, no panics, no scheme-dependent divergence in failure mode.
    for scheme in Scheme::ALL {
        let mut prepared = program.clone();
        scheme.prepare(&mut prepared);
        let config = CoreConfig { max_cycles: 60_000, ..CoreConfig::default() };
        let mut sim = Simulator::new(&prepared, config);
        for (i, &v) in NESTED_LOOPS_DATA.iter().enumerate() {
            sim.mem.write_i64(equivalence_checks::ARRAY + 8 * i as u64, v);
        }
        match sim.run(scheme.policy().as_ref()) {
            Err(SimError::CycleLimit { max_cycles }) => assert_eq!(max_cycles, 60_000),
            other => panic!("{scheme}: expected CycleLimit, got {other:?}"),
        }
    }
}

/// The halting prefix of the nested-loop shrink (outer loop removed): the
/// same statements must still satisfy full interpreter/simulator
/// equivalence under every scheme, so the non-halting regression above
/// is pinned to the *termination* problem, not to these statement shapes.
#[test]
fn arch_equivalence_regression_inner_loop_alone_is_equivalent() {
    let source = "arr a @ 1048576;\nfn main() {\nlet v0 = 0;\nlet v1 = 0;\nlet v2 = 0;\nlet v3 = 0;\nv3 = 0; while (v3 < 1) { v0 = 0; v3 = v3 + 1; }\na[100] = v0; a[101] = v1; a[102] = v2; a[103] = v3;\n}\n";
    equivalence_checks::check_every_scheme_commits_interpreter_state(source, &NESTED_LOOPS_DATA);
}
