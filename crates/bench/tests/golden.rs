//! The golden regression gate as tests: recompute the shape figures and
//! compare them against the recorded snapshots in each tier's golden
//! directory (`results/golden/smoke/`; for the paper tier the committed
//! `results/` itself).
//!
//! The smoke-tier test runs on every `cargo test --workspace` (the sweeps
//! are bit-deterministic, so opt level doesn't move the numbers). The
//! paper-tier test replays the full evaluation settings and is `#[ignore]`d
//! for time; `cargo test -p levioso-bench -- --ignored` runs it on demand.
//! `all --smoke --check` and `all --paper --check`, CI's golden gate,
//! check the same figures and every other report `all` writes at that
//! tier.

use levioso_bench::{gate, Sweep, Tier};

/// Computes the tier's shape figures, asserts the shape invariants hold,
/// and asserts every cell matches its golden snapshot.
fn assert_tier_clean(tier: Tier) {
    let sweep = Sweep::from_env();
    let figures = gate::shape_figures(&sweep, tier);
    let violations = gate::shape_violations(&figures);
    assert!(violations.is_empty(), "shape invariants violated:\n{}", violations.join("\n"));
    let report = gate::check_figures(&figures, tier);
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.cells_checked > 100, "suspiciously few cells: {}", report.cells_checked);
}

#[test]
fn smoke_figures_match_their_golden_snapshots() {
    assert_tier_clean(Tier::Smoke);
}

#[test]
#[ignore = "full paper-tier sweep (~75 s on one thread from an empty cell cache); run with --ignored or `all --paper --check`"]
fn paper_figures_match_their_golden_snapshots_at_full_settings() {
    assert_tier_clean(Tier::Paper);
}
