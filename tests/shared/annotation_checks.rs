//! Annotation-pass invariants shared between the random property tests
//! (`tests/annotation_props.rs`) and the named deterministic regression
//! tests (`tests/regressions.rs`). Each function takes a Levi source
//! string and panics if the invariant is violated.

use levioso::compiler::{annotate_with, AnnotateConfig};
use levioso::isa::DepSet;

/// Both annotation flavours validate structurally, and the static
/// (dataflow-closed) sets are supersets of the control-only sets.
pub fn check_static_superset_of_control(source: &str) {
    let base = levioso::compiler::levi::compile_unannotated("prop", source)
        .expect("generated programs compile");

    let mut ctrl = base.clone();
    annotate_with(&mut ctrl, &AnnotateConfig { static_dataflow: false });
    ctrl.validate().expect("control-only annotations validate");

    let mut full = base.clone();
    annotate_with(&mut full, &AnnotateConfig { static_dataflow: true });
    full.validate().expect("static annotations validate");

    let ca = ctrl.annotations.as_ref().unwrap();
    let fa = full.annotations.as_ref().unwrap();
    for i in 0..base.len() {
        match (ca.deps_of(i), fa.deps_of(i)) {
            (DepSet::Exact(c), DepSet::Exact(f)) => {
                for d in c {
                    assert!(
                        f.binary_search(d).is_ok(),
                        "instr {i}: control dep {d} missing from static set {f:?}\n{source}"
                    );
                }
            }
            (DepSet::AllOlder, DepSet::AllOlder) => {}
            (c, f) => panic!("instr {i}: flavours disagree on conservatism: {c:?} vs {f:?}"),
        }
    }
}

/// Capping to any budget monotonically coarsens: kept sets are unchanged
/// and within the cap, and `AllOlder` is never refined.
pub fn check_capping_coarsens(source: &str) {
    let mut p = levioso::compiler::levi::compile_unannotated("prop", source).expect("compiles");
    annotate_with(&mut p, &AnnotateConfig { static_dataflow: true });
    let a = p.annotations.as_ref().unwrap();
    for cap in [0usize, 1, 2, 4] {
        let capped = a.capped(cap);
        for i in 0..p.len() {
            match (a.deps_of(i), capped.deps_of(i)) {
                (DepSet::Exact(orig), DepSet::Exact(kept)) => {
                    assert!(
                        orig.len() <= cap || orig == kept && orig.len() <= cap,
                        "sets larger than the cap must coarsen"
                    );
                    assert_eq!(orig, kept);
                }
                (_, DepSet::AllOlder) => {} // coarsened or already conservative
                (DepSet::AllOlder, DepSet::Exact(_)) => {
                    panic!("capping must never refine AllOlder");
                }
            }
        }
        assert!(capped.cost().all_older >= a.cost().all_older);
    }
}

/// Every exact dependency references a conditional branch, the entry
/// instruction is dependency-free, and all dependency sets are sorted and
/// duplicate-free.
pub fn check_deps_reference_branches_only(source: &str) {
    let mut p = levioso::compiler::levi::compile_unannotated("prop", source).expect("compiles");
    annotate_with(&mut p, &AnnotateConfig::default());
    let a = p.annotations.as_ref().unwrap();
    for (i, set) in a.iter() {
        if let DepSet::Exact(v) = set {
            for &d in v {
                assert!(p.instrs[d as usize].is_branch());
            }
            assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
            if i == 0 {
                assert!(v.is_empty(), "entry instruction has no dependencies");
            }
        }
    }
}
