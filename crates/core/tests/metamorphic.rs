//! Metamorphic oracle for the Levioso policy.
//!
//! With every dependency set widened to `AllOlder`
//! ([`Annotations::all_older`]), Levioso has no compiler knowledge left:
//! each instruction must wait for every older unresolved control
//! instruction, which is exactly what the hardware-only execute-delay
//! baseline does. So on those annotations `levioso` and `levioso-static`
//! must time every kernel exactly like execute-delay. The relation follows
//! from the schemes' definitions, so it checks the policies without
//! trusting any figure or golden the code under test produced.

use levioso_core::Scheme;
use levioso_isa::Annotations;
use levioso_uarch::{CoreConfig, SimStats, Simulator};
use levioso_workloads::{suite, Scale, Workload};

fn run(w: &Workload, scheme: Scheme, config: &CoreConfig, all_older: bool) -> SimStats {
    let mut program = w.program.clone();
    scheme.prepare(&mut program);
    if all_older {
        program.annotations = Some(Annotations::all_older(program.len()));
    }
    let mut sim = Simulator::new(&program, config.clone());
    w.apply_memory(&mut sim);
    let stats = sim
        .run(scheme.policy().as_ref())
        .unwrap_or_else(|e| panic!("{} under {scheme}: {e}", w.name));
    assert_eq!(sim.mem.read_i64(w.checksum_addr), w.expected_checksum(), "{}", w.name);
    stats
}

/// Zeroes F1's four true-dependency counters: they are derived from the
/// annotations a run carries, not from its timing.
fn timing(s: SimStats) -> SimStats {
    SimStats {
        ready_while_true_dep: 0,
        loads_ready_while_true_dep: 0,
        true_wait_cycles: 0,
        loads_true_wait_cycles: 0,
        ..s
    }
}

#[test]
fn levioso_on_all_older_annotations_is_execute_delay() {
    let configs = [
        ("the default core", CoreConfig::default()),
        ("ROB 64", CoreConfig::default().with_rob_size(64)),
        ("DRAM 300", CoreConfig::default().with_dram_latency(300)),
    ];
    let (mut cases, mut delayed) = (0, 0);
    for w in suite(Scale::Smoke) {
        for (label, config) in &configs {
            let reference = timing(run(&w, Scheme::ExecuteDelay, config, false));
            delayed += usize::from(reference.policy_delay_cycles > 0);
            for scheme in [Scheme::Levioso, Scheme::LeviosoStatic] {
                let got = timing(run(&w, scheme, config, true));
                assert_eq!(got, reference, "{} under {scheme} on {label}", w.name);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 72);
    // Equal stats would prove nothing if execute-delay never held anything.
    assert!(delayed > 0, "execute-delay delayed nothing on any kernel");
}
