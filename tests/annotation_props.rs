//! Property tests on the annotation pass itself: structural validity,
//! monotonicity between flavours, and soundness-preserving coarsening, over
//! random Levi programs generated by the seeded `levioso-support` harness.
//!
//! The per-property check bodies live in `shared/annotation_checks.rs` so
//! the named regression tests (`tests/regressions.rs`) can replay
//! historical failing inputs through exactly the same assertions.

use levioso_support::{Gen, Rng};

#[path = "shared/annotation_checks.rs"]
mod body;

/// Small random structured programs (a lighter generator than the
/// equivalence test's: no data needed, just shapes).
fn arb_source(g: &mut Gen) -> String {
    fn expr(g: &mut Gen) -> String {
        match g.usize_in(0..4) {
            0 => g.i64_in(-20..20).to_string(),
            1 => format!("v{}", g.usize_in(0..3)),
            2 => format!("a[{}]", g.i64_in(0..16)),
            _ => format!("(v{} + a[{}])", g.usize_in(0..3), g.i64_in(0..16)),
        }
    }
    fn stmt(g: &mut Gen) -> String {
        match g.usize_in(0..5) {
            0 => format!("v{} = {};", g.usize_in(0..3), expr(g)),
            1 => format!("a[{}] = {};", g.i64_in(0..16), expr(g)),
            2 => format!("if ({}) {{ v{} = {}; }}", expr(g), g.usize_in(0..3), expr(g)),
            3 => {
                let (c, v, e) = (expr(g), g.usize_in(0..3), expr(g));
                format!("if ({c}) {{ v{v} = {e}; }} else {{ v{v} = 0 - {e}; }}")
            }
            _ => {
                let (n, v, e) = (g.i64_in(1..8), g.usize_in(0..3), expr(g));
                format!("v3 = 0; while (v3 < {n}) {{ v{v} = {e}; v3 = v3 + 1; }}")
            }
        }
    }
    let count = g.usize_in(1..8);
    let stmts: Vec<String> = (0..count).map(|_| stmt(g)).collect();
    format!(
        "arr a @ 0x10000;\nfn main() {{\nlet v0 = 1;\nlet v1 = 2;\nlet v2 = 3;\nlet v3 = 0;\n{}\n}}\n",
        stmts.join("\n")
    )
}

levioso_support::props! {
    cases = 64;

    /// Both annotation flavours validate structurally, and the static
    /// (dataflow-closed) sets are supersets of the control-only sets.
    fn static_flavour_is_a_superset_of_control_only(g) {
        let source = arb_source(g);
        g.note("source", &source);
        body::check_static_superset_of_control(&source);
    }

    /// Exact dependency sets only ever reference *older* conditional
    /// branches in straight-line-ordered programs? No — branches may be
    /// younger in program order (loop back-edges). What must hold: every
    /// dep is a conditional branch, and capping monotonically coarsens.
    fn capping_never_invents_precision(g) {
        let source = arb_source(g);
        g.note("source", &source);
        body::check_capping_coarsens(&source);
    }

    /// Every exact dependency references a conditional branch, the entry
    /// instruction is dependency-free (it executes unconditionally exactly
    /// once), and all dependency sets are sorted and duplicate-free.
    ///
    /// (Note what is deliberately *not* asserted: instructions preceding
    /// the first branch in index order may still carry dependencies —
    /// loop-header condition code sits before its own back-edge branch.)
    fn deps_reference_branches_only(g) {
        let source = arb_source(g);
        g.note("source", &source);
        body::check_deps_reference_branches_only(&source);
    }
}
