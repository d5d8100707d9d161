//! Observer-effect tests for the trace layer: a simulation must produce
//! bit-identical results and statistics with no sink, with the no-op
//! [`NullSink`], and with a recording sink attached — tracing observes
//! the pipeline, it never steers it. A policy that actually delays
//! (uarch only ships [`UnsafeBaseline`], so the test brings its own)
//! additionally checks the policy-block stream: one blame per blocked
//! cycle, conserved against `SimStats::policy_delay_cycles`.

use levioso_isa::{assemble, Instr, Program};
use levioso_uarch::{
    Blame, CoreConfig, DynInstr, NullSink, Release, Seq, SimStats, Simulator, SpeculationPolicy,
    TraceSink, UnsafeBaseline, Wait,
};

/// A Fence-like in-test policy so the block/blame hooks actually fire.
#[derive(Debug)]
struct DelayUnderShadow;

impl SpeculationPolicy for DelayUnderShadow {
    fn execute_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        Some(Wait {
            rule: "test:delay-under-shadow",
            deps: &instr.shadow,
            release: Release::Resolve,
        })
    }
}

/// Counts every hook and buffers per-instruction blame the same way the
/// core buffers `policy_delay_cycles` (fold at commit, drop at squash).
#[derive(Debug, Default)]
struct Recorder {
    fetched: u64,
    dispatched: u64,
    issued: u64,
    blocked: u64,
    resolved: u64,
    mispredicted: u64,
    squashed: u64,
    written_back: u64,
    committed: u64,
    pending: std::collections::HashMap<Seq, u64>,
    committed_blocked: u64,
}

impl TraceSink for Recorder {
    fn on_fetch(&mut self, _cycle: u64, _pc: u32, _instr: &Instr) {
        self.fetched += 1;
    }

    fn on_dispatch(&mut self, _cycle: u64, _instr: &DynInstr) {
        self.dispatched += 1;
    }

    fn on_issue(&mut self, _cycle: u64, _instr: &DynInstr) {
        self.issued += 1;
    }

    fn on_policy_block(&mut self, _cycle: u64, instr: &DynInstr, blame: &Blame) {
        assert!(!blame.rule.is_empty());
        self.blocked += 1;
        *self.pending.entry(instr.seq).or_default() += 1;
    }

    fn on_resolve(&mut self, _cycle: u64, _instr: &DynInstr, mispredicted: bool) {
        self.resolved += 1;
        self.mispredicted += u64::from(mispredicted);
    }

    fn on_squash(&mut self, _cycle: u64, seq: Seq, _pc: u32) {
        self.squashed += 1;
        self.pending.remove(&seq);
    }

    fn on_writeback(&mut self, _cycle: u64, _instr: &DynInstr) {
        self.written_back += 1;
    }

    fn on_commit(&mut self, _cycle: u64, instr: &DynInstr) {
        self.committed += 1;
        self.committed_blocked += self.pending.remove(&instr.seq).unwrap_or(0);
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

fn workload() -> Program {
    assemble(
        "t",
        r"
        li   t0, 0x1000
        li   a0, 40
        li   a1, 0
    loop:
        andi t1, a0, 7
        sltiu t1, t1, 3
        beqz t1, skip
        slli t2, a0, 3
        add  t2, t2, t0
        ld   t3, 0(t2)
        add  a1, a1, t3
    skip:
        addi a0, a0, -1
        bnez a0, loop
        sd   a1, 0(t0)
        halt
    ",
    )
    .unwrap()
}

fn run(
    policy: &dyn SpeculationPolicy,
    sink: Option<Box<dyn TraceSink>>,
) -> (SimStats, u64, Option<Box<dyn TraceSink>>) {
    let program = workload();
    let mut sim = Simulator::new(&program, CoreConfig::default());
    for i in 0..64u64 {
        sim.mem.write_i64(0x1000 + 8 * i, (i as i64).wrapping_mul(37) - 11);
    }
    if let Some(s) = sink {
        sim.attach_tracer(s);
    }
    let stats = sim.run(policy).expect("simulation");
    let sink = sim.take_tracer();
    (stats, sim.arch_fingerprint(), sink)
}

#[test]
fn sinks_never_perturb_the_simulation() {
    for policy in [&UnsafeBaseline as &dyn SpeculationPolicy, &DelayUnderShadow] {
        let (bare, bare_fp, _) = run(policy, None);
        let (null, null_fp, _) = run(policy, Some(Box::new(NullSink)));
        let (rec, rec_fp, _) = run(policy, Some(Box::<Recorder>::default()));
        assert_eq!(bare, null, "{policy:?}: NullSink changed the statistics");
        assert_eq!(bare, rec, "{policy:?}: recording sink changed the statistics");
        assert_eq!(bare_fp, null_fp, "{policy:?}: NullSink changed architectural state");
        assert_eq!(bare_fp, rec_fp, "{policy:?}: recorder changed architectural state");
    }
}

#[test]
fn recorder_event_counts_match_the_statistics() {
    let (stats, _, sink) = run(&DelayUnderShadow, Some(Box::<Recorder>::default()));
    let rec = sink.unwrap().into_any().downcast::<Recorder>().unwrap();
    assert_eq!(rec.fetched, stats.fetched);
    assert_eq!(rec.dispatched, stats.dispatched);
    assert_eq!(rec.committed, stats.committed);
    // `SimStats::squashed` additionally counts wrong-path instructions
    // dropped from the fetch queue before dispatch; those have no ROB
    // entry (and no sequence number), so no `on_squash` event.
    assert!(rec.squashed <= stats.squashed);
    assert_eq!(rec.mispredicted, stats.mispredicts);
    // Every dispatched instruction commits, squashes, or is still in the
    // ROB when halt commits (never anything else).
    assert!(rec.dispatched >= rec.committed + rec.squashed);
    assert!(rec.issued >= rec.committed, "committed instructions all issued");
    // The shadow-gated policy must actually have blocked something, and
    // the blame folded at commit must conserve the simulator's counter.
    assert!(rec.blocked > 0, "the delay policy never fired — weak test workload");
    assert_eq!(rec.committed_blocked, stats.policy_delay_cycles, "blame is not conserved");
}

#[test]
fn null_and_absent_sink_are_equivalent_for_the_unsafe_baseline() {
    let (bare, fp1, _) = run(&UnsafeBaseline, None);
    let (null, fp2, sink) = run(&UnsafeBaseline, Some(Box::new(NullSink)));
    assert_eq!(bare, null);
    assert_eq!(fp1, fp2);
    // The sink comes back out and downcasts to what went in.
    assert!(sink.unwrap().into_any().downcast::<NullSink>().is_ok());
}
