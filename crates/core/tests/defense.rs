//! End-to-end behaviour of the defense schemes: architectural equivalence,
//! the performance ordering the paper reports, and transient-leak gating
//! at the cache-state level (full receiver-based attacks live in
//! `levioso-attacks`).

use levioso_core::{run_scheme, Scheme};
use levioso_isa::{assemble, Machine};
use levioso_uarch::{CoreConfig, SimError, Simulator};

const ARRAY: u64 = 0x10_0000;
const N: usize = 4096;

/// The canonical differentiating kernel: a data-dependent filter branch
/// (slow to resolve, often mispredicted) inside a loop whose next-iteration
/// loads are independent of it.
fn filter_scan() -> levioso_isa::Program {
    levioso_compiler::levi::compile(
        "filter_scan",
        r"
        arr a @ 0x100000;
        const N = 4096;
        fn main() {
            let i = 0;
            let sum = 0;
            while (i < N) {
                if (a[i] > 0) { sum = sum + a[i]; }
                i = i + 1;
            }
            a[N] = sum;
        }
        ",
    )
    .expect("kernel compiles")
}

fn filter_data() -> Vec<(u64, i64)> {
    (0..N as u64)
        .map(|i| (ARRAY + 8 * i, ((i.wrapping_mul(2654435761) >> 7) % 101) as i64 - 50))
        .collect()
}

fn run_filter(scheme: Scheme) -> levioso_uarch::SimStats {
    let p = filter_scan();
    run_scheme(&p, scheme, &CoreConfig::default(), |sim| {
        for (a, v) in filter_data() {
            sim.mem.write_i64(a, v);
        }
    })
    .expect("simulation succeeds")
}

#[test]
fn all_schemes_commit_identical_architectural_state() {
    let p = filter_scan();
    let mut machine = Machine::new();
    for (a, v) in filter_data() {
        machine.mem.write_i64(a, v);
    }
    machine.run(&p, 50_000_000).unwrap();
    let expected = machine.mem.read_i64(ARRAY + 8 * N as u64);
    assert_ne!(expected, 0, "kernel computes something");

    for scheme in Scheme::ALL {
        let p = filter_scan();
        let mut result = 0;
        run_scheme(&p, scheme, &CoreConfig::default(), |sim| {
            for (a, v) in filter_data() {
                sim.mem.write_i64(a, v);
            }
            result = 0;
        })
        .map(|stats| {
            assert!(stats.committed > 0);
        })
        .unwrap();
        // Re-run capturing memory (run_scheme owns the simulator; simplest
        // is to re-create and inspect via a fresh run below).
        let mut prepared = p.clone();
        scheme.prepare(&mut prepared);
        let mut sim = levioso_uarch::Simulator::new(&prepared, CoreConfig::default());
        for (a, v) in filter_data() {
            sim.mem.write_i64(a, v);
        }
        sim.run(scheme.policy().as_ref()).unwrap();
        result = sim.mem.read_i64(ARRAY + 8 * N as u64);
        assert_eq!(result, expected, "{scheme} changed the architectural result");
        assert_eq!(
            sim.arch_fingerprint(),
            machine.arch_fingerprint(),
            "{scheme} diverged from the reference interpreter"
        );
    }
}

#[test]
fn performance_ordering_matches_the_paper() {
    let unsafe_cycles = run_filter(Scheme::Unsafe).cycles as f64;
    let overhead = |s: Scheme| run_filter(s).cycles as f64 / unsafe_cycles - 1.0;

    let fence = overhead(Scheme::Fence);
    let commit = overhead(Scheme::CommitDelay);
    let execute = overhead(Scheme::ExecuteDelay);
    let levioso = overhead(Scheme::Levioso);
    let dom = overhead(Scheme::DelayOnMiss);
    let stt = overhead(Scheme::Stt);

    // The paper's shape: Fence ≫ CommitDelay (≈51 %) > ExecuteDelay
    // (≈43 %) > Levioso (≈23 %), with the non-comprehensive schemes cheap.
    assert!(fence > commit, "fence {fence:.3} should exceed commit-delay {commit:.3}");
    assert!(commit > execute, "commit {commit:.3} should exceed execute {execute:.3}");
    assert!(
        execute > levioso + 0.02,
        "execute-delay {execute:.3} should clearly exceed levioso {levioso:.3}"
    );
    assert!(levioso >= -0.01, "levioso {levioso:.3} cannot beat the unprotected core");
    assert!(
        levioso < execute * 0.75,
        "levioso {levioso:.3} should recover a large fraction of execute-delay {execute:.3}"
    );
    assert!(dom >= 0.0 && stt >= -0.01, "sanity: dom {dom:.3}, stt {stt:.3}");
}

#[test]
fn levioso_preserves_mlp_on_the_filter_scan() {
    // The mechanism behind the win: under execute-delay, loads of future
    // iterations wait for the slow filter branch; under Levioso they only
    // wait for the (fast) loop branch.
    let levioso = run_filter(Scheme::Levioso);
    let execute = run_filter(Scheme::ExecuteDelay);
    assert!(
        execute.policy_delay_cycles > levioso.policy_delay_cycles,
        "execute-delay must block loads for longer ({} vs {})",
        execute.policy_delay_cycles,
        levioso.policy_delay_cycles
    );
}

/// Gadget: the transmit is *control-dependent* on a slow mispredicted
/// branch. Blocked by every comprehensive scheme.
const COND: u64 = 0x20_0000;
const PROBE: u64 = 0x30_0000;

fn ctrl_dep_gadget() -> levioso_isa::Program {
    assemble(
        "ctrl_gadget",
        r"
        li   a1, 0x200000
        li   a2, 0x300000
        ld   t0, 0(a1)       # slow condition (cold)
        bnez t0, skip        # predicted not-taken, actually taken
        ld   t3, 0(a2)       # transient transmit
    skip:
        halt
    ",
    )
    .unwrap()
}

fn probe_cached_after(scheme: Scheme, program: &levioso_isa::Program, probe: u64) -> bool {
    let mut prepared = program.clone();
    scheme.prepare(&mut prepared);
    let mut sim = levioso_uarch::Simulator::new(&prepared, CoreConfig::default());
    sim.mem.write_i64(COND, 1);
    sim.run(scheme.policy().as_ref()).unwrap();
    assert!(sim.stats().mispredicts >= 1, "{scheme}: gadget must mispredict");
    sim.hierarchy().contains(probe)
}

#[test]
fn control_dependent_transient_load_is_gated() {
    let g = ctrl_dep_gadget();
    assert!(probe_cached_after(Scheme::Unsafe, &g, PROBE), "unsafe leaks");
    for scheme in [
        Scheme::Fence,
        Scheme::CommitDelay,
        Scheme::ExecuteDelay,
        Scheme::Levioso,
        Scheme::LeviosoStatic,
        Scheme::DelayOnMiss,
    ] {
        assert!(
            !probe_cached_after(scheme, &g, PROBE),
            "{scheme} must block the control-dependent transient load"
        );
    }
}

#[test]
fn schemes_that_read_annotations_refuse_an_unannotated_program() {
    // Straight into `Simulator::run`: `Scheme::prepare` and `run_scheme`
    // would annotate the program first. Without the refusal, Levioso would
    // read the missing annotations as `AllOlder` and time the program as
    // execute-delay.
    let g = ctrl_dep_gadget();
    assert!(g.annotations.is_none(), "assembled programs carry no annotations");
    let mut refused = 0;
    for scheme in Scheme::ALL {
        let mut sim = Simulator::new(&g, CoreConfig::default());
        sim.mem.write_i64(COND, 1);
        let result = sim.run(scheme.policy().as_ref());
        if matches!(scheme, Scheme::Levioso | Scheme::LeviosoStatic | Scheme::LeviosoCtrlOnly) {
            assert_eq!(result, Err(SimError::MissingAnnotations), "{scheme}");
            assert_eq!(sim.stats().cycles, 0, "{scheme} refused before simulating");
            refused += 1;
        } else {
            let stats = result.unwrap_or_else(|e| panic!("{scheme} reads no annotations: {e}"));
            assert!(stats.committed > 0, "{scheme} halted");
        }
    }
    assert!(refused > 0, "no scheme refused");
}

/// Gadget: the transmit is *post-reconvergence* but **data**-dependent on
/// the branch (a phi value selects the probe address). This is exactly the
/// case the control-only ablation misses.
const PROBE_A: u64 = 0x40_0000;
const PROBE_B: u64 = 0x50_0000;

fn data_dep_gadget() -> levioso_isa::Program {
    assemble(
        "phi_gadget",
        r"
        li   a1, 0x200000
        ld   t0, 0(a1)       # slow condition (cold)
        bnez t0, other       # predicted not-taken, actually taken
        li   t1, 0x400000    # wrong-path phi value
        j    join
    other:
        li   t1, 0x500000    # correct-path phi value
    join:
        ld   t2, 0(t1)       # post-reconvergence transmit (data-dependent)
        halt
    ",
    )
    .unwrap()
}

#[test]
fn data_dependent_transient_load_needs_dataflow_closure() {
    let g = data_dep_gadget();
    // Unsafe: the wrong-path probe address is filled.
    assert!(probe_cached_after(Scheme::Unsafe, &g, PROBE_A));
    // Full Levioso (hardware dataflow propagation): blocked.
    assert!(
        !probe_cached_after(Scheme::Levioso, &g, PROBE_A),
        "levioso must inherit the branch dependency through the phi value"
    );
    // Static Levioso (compile-time dataflow closure): blocked.
    assert!(!probe_cached_after(Scheme::LeviosoStatic, &g, PROBE_A));
    // Control-only ablation: LEAKS — demonstrating why the closure exists.
    assert!(
        probe_cached_after(Scheme::LeviosoCtrlOnly, &g, PROBE_A),
        "the unsound ablation is expected to leak here"
    );
    // The correct-path probe is architecturally loaded in all runs.
    assert!(probe_cached_after(Scheme::Levioso, &g, PROBE_B));
}

#[test]
fn levioso_does_not_gate_independent_loads_under_unresolved_branches() {
    // An independent load younger than a slow branch must execute under
    // Levioso while execute-delay stalls it: measure with rdcycle.
    let p = assemble(
        "independent",
        r"
        li   a1, 0x200000
        li   a2, 0x600000
        ld   t0, 0(a1)       # slow branch condition
        beqz t0, target      # predicted not-taken (cold counters) and
                             # actually not taken: correct but slow to resolve
        nop
    target:
        ld   t3, 0(a2)       # independent of the branch (executes either way,
                             # same address) — Levioso lets it go
        halt
    ",
    )
    .unwrap();
    let run = |scheme: Scheme| {
        let mut prepared = p.clone();
        scheme.prepare(&mut prepared);
        let mut sim = levioso_uarch::Simulator::new(&prepared, CoreConfig::default());
        sim.mem.write_i64(COND, 1);
        sim.run(scheme.policy().as_ref()).unwrap();
        sim.hierarchy().contains(0x60_0000)
    };
    assert!(run(Scheme::Levioso), "independent load executes and fills under Levioso");
    assert!(run(Scheme::ExecuteDelay), "it also commits (hence fills) under execute-delay");

    // The discriminating observation: policy delay cycles.
    let delay = |scheme: Scheme| {
        let mut prepared = p.clone();
        scheme.prepare(&mut prepared);
        let mut sim = levioso_uarch::Simulator::new(&prepared, CoreConfig::default());
        sim.mem.write_i64(COND, 1);
        let stats = sim.run(scheme.policy().as_ref()).unwrap();
        stats.policy_delay_cycles
    };
    assert_eq!(delay(Scheme::Levioso), 0, "levioso never delays the independent load");
    assert!(delay(Scheme::ExecuteDelay) > 50, "execute-delay stalls it for ~branch latency");
}

#[test]
fn stt_blocks_tainted_transmit_but_not_architectural_secrets() {
    // Spectre-v1 shape: transmit address derives from a *speculative* load
    // → STT blocks.
    let v1 = assemble(
        "v1",
        r"
        li   a1, 0x200000     # condition address (cold → slow branch)
        li   a2, 0x700000     # table of indices
        li   a3, 0x800000     # oracle array
        ld   t4, 0(a2)        # warm the index line first
        fence
        ld   t0, 0(a1)        # slow (cold) condition
        bnez t0, skip         # predicted NT, actually taken
        ld   t1, 0(a2)        # speculative load (L1 hit) → tainted
        slli t1, t1, 6
        add  t2, a3, t1
        ld   t3, 0(t2)        # transmit of tainted value
    skip:
        halt
    ",
    )
    .unwrap();
    let oracle_line = 0x80_0000 + (7 << 6);
    let run_v1 = |scheme: Scheme| {
        let mut prepared = v1.clone();
        scheme.prepare(&mut prepared);
        let mut sim = levioso_uarch::Simulator::new(&prepared, CoreConfig::default());
        sim.mem.write_i64(COND, 1);
        sim.mem.write_i64(0x70_0000, 7); // "secret" index
        sim.run(scheme.policy().as_ref()).unwrap();
        sim.hierarchy().contains(oracle_line)
    };
    assert!(run_v1(Scheme::Unsafe), "unsafe leaks the tainted transmit");
    assert!(!run_v1(Scheme::Stt), "stt blocks speculatively-loaded secrets");
    assert!(!run_v1(Scheme::Levioso), "levioso blocks it too (control dependence)");

    // Constant-time shape: the secret is in a register from a
    // *non-speculative* load; only the branch is transient. STT leaks.
    let ct = assemble(
        "ct",
        r"
        li   a1, 0x200000
        li   a2, 0x700000     # secret location (loaded architecturally)
        li   a3, 0x800000     # oracle
        ld   s0, 0(a2)        # NON-speculative secret load
        fence                 # make it definitively architectural
        ld   t0, 0(a1)        # slow condition
        bnez t0, skip         # predicted NT, actually taken
        slli t1, s0, 6
        add  t2, a3, t1
        ld   t3, 0(t2)        # transient transmit of an architectural secret
    skip:
        halt
    ",
    )
    .unwrap();
    let run_ct = |scheme: Scheme| {
        let mut prepared = ct.clone();
        scheme.prepare(&mut prepared);
        let mut sim = levioso_uarch::Simulator::new(&prepared, CoreConfig::default());
        sim.mem.write_i64(COND, 1);
        sim.mem.write_i64(0x70_0000, 7);
        sim.run(scheme.policy().as_ref()).unwrap();
        sim.hierarchy().contains(0x80_0000 + (7 << 6))
    };
    assert!(run_ct(Scheme::Unsafe), "unsafe leaks the architectural secret");
    assert!(run_ct(Scheme::Stt), "stt does NOT cover non-speculatively loaded secrets (by design)");
    assert!(!run_ct(Scheme::Levioso), "levioso is comprehensive: blocked");
    assert!(!run_ct(Scheme::ExecuteDelay), "execute-delay is comprehensive: blocked");
}
