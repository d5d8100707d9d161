//! Delay-attribution integration tests over the full smoke suite: blame
//! conservation (the sum of blamed cycles equals the simulator's own
//! `policy_delay_cycles`) and the no-observer-effect guarantee (a traced
//! run returns the same statistics as an untraced one) on every
//! `(scheme, workload)` cell.

use levioso_bench::attrib::run_workload_attributed;
use levioso_bench::{run_workload, Sweep};
use levioso_core::Scheme;
use levioso_uarch::CoreConfig;
use levioso_workloads::{suite, Scale, Workload};

#[test]
fn blame_is_conserved_and_invisible_on_every_smoke_cell() {
    let config = CoreConfig::default();
    let workloads = suite(Scale::Smoke);
    let cells: Vec<(Scheme, &Workload)> =
        Scheme::ALL.iter().flat_map(|&scheme| workloads.iter().map(move |w| (scheme, w))).collect();
    let results = Sweep::from_env().run(&cells, |_, &(scheme, w)| {
        let untraced = run_workload(w, scheme, &config);
        // Asserts blamed_cycles == policy_delay_cycles internally.
        let (traced, attrib) = run_workload_attributed(w, scheme, &config);
        assert_eq!(
            untraced, traced,
            "{} under {scheme}: attaching a sink changed the statistics",
            w.name
        );
        // Per-kind counters partition the same total.
        assert_eq!(
            attrib.kind_cycles.iter().sum::<u64>() + attrib.unattributed_cycles,
            attrib.blamed_cycles(),
            "{} under {scheme}: kind counters do not partition the blame",
            w.name
        );
        (scheme, attrib)
    });
    // The protected schemes must blame something somewhere in the suite,
    // and the unsafe baseline must blame nothing anywhere.
    for &scheme in &Scheme::ALL {
        let total: u64 =
            results.iter().filter(|(s, _)| *s == scheme).map(|(_, a)| a.blamed_cycles()).sum();
        if scheme == Scheme::Unsafe {
            assert_eq!(total, 0, "the unsafe baseline delays nothing");
        } else {
            assert!(total > 0, "{scheme} never delayed anything across the smoke suite");
        }
    }
}

#[test]
fn attribution_rules_carry_the_scheme_vocabulary() {
    let pairs = [
        (Scheme::Levioso, "levioso:"),
        (Scheme::Fence, "fence:"),
        (Scheme::ExecuteDelay, "execute-delay:"),
        (Scheme::CommitDelay, "commit-delay:"),
        (Scheme::Stt, "stt:"),
    ];
    let schemes: Vec<Scheme> = pairs.iter().map(|&(s, _)| s).collect();
    let report = levioso_bench::attribution_report(&Sweep::from_env(), Scale::Smoke, &schemes);
    for ((scheme, attrib), (_, prefix)) in report.iter().zip(&pairs) {
        assert!(
            attrib.rules.keys().any(|r| r.starts_with(prefix)),
            "{scheme}: expected a `{prefix}*` rule somewhere in the suite, got {:?}",
            attrib.rules.keys().collect::<Vec<_>>()
        );
    }
}
