//! Integration tests for the out-of-order core: architectural equivalence
//! with the reference interpreter, timing sanity, and — crucially — the
//! transient-execution side-effect substrate the security study rests on.

use levioso_isa::{assemble, reg::*, Instr, Machine, Program};
use levioso_uarch::{
    Blame, CoreConfig, DynInstr, ReferenceChecks, Release, Seq, SimError, SimStats, Simulator,
    SpeculationPolicy, TraceSink, UnsafeBaseline, Wait,
};
use std::any::Any;

/// Runs `program` on both the interpreter and the simulator (same initial
/// memory image) and asserts identical final architectural state.
fn assert_equivalent(program: &Program, init_mem: &[(u64, i64)]) -> levioso_uarch::SimStats {
    let mut machine = Machine::new();
    for &(a, v) in init_mem {
        machine.mem.write_i64(a, v);
    }
    machine.run(program, 50_000_000).expect("interpreter run");

    let mut sim = Simulator::new(program, CoreConfig::default());
    for &(a, v) in init_mem {
        sim.mem.write_i64(a, v);
    }
    let stats = sim.run(&UnsafeBaseline).expect("simulator run");

    for r in levioso_isa::Reg::all() {
        assert_eq!(sim.reg(r), machine.reg(r), "register {r} differs");
    }
    assert_eq!(
        sim.arch_fingerprint(),
        machine.arch_fingerprint(),
        "architectural state fingerprint differs"
    );
    assert_eq!(stats.committed, machine.retired(), "retired instruction count differs");
    stats
}

#[test]
fn straight_line_equivalence() {
    let p = assemble(
        "t",
        r"
        li   a0, 7
        li   a1, 9
        mul  a2, a0, a1
        div  a3, a2, a0
        rem  a4, a2, a1
        sub  a5, a2, a3
        halt
    ",
    )
    .unwrap();
    assert_equivalent(&p, &[]);
}

#[test]
fn loop_equivalence_and_ipc() {
    let p = assemble(
        "t",
        r"
        li   a0, 1000
        li   a1, 0
    loop:
        add  a1, a1, a0
        addi a0, a0, -1
        bnez a0, loop
        halt
    ",
    )
    .unwrap();
    let stats = assert_equivalent(&p, &[]);
    // A predictable loop on an 8-wide core must exceed 1 IPC comfortably.
    assert!(stats.ipc() > 1.0, "ipc {} too low for a trivial loop", stats.ipc());
    assert!(stats.mispredicts <= 24, "trivial loop should mispredict only during gshare warmup");
}

#[test]
fn memory_and_forwarding_equivalence() {
    let p = assemble(
        "t",
        r"
        li   t0, 0x1000
        li   t1, -123
        sd   t1, 0(t0)      # store then immediately load back: forwarding
        ld   t2, 0(t0)
        sb   t1, 64(t0)     # byte store
        lbu  t3, 64(t0)
        lb   t4, 64(t0)
        sw   t2, 128(t0)    # partial-overlap pattern: word store, byte load
        lb   t5, 129(t0)
        halt
    ",
    )
    .unwrap();
    assert_equivalent(&p, &[]);
}

#[test]
fn data_dependent_branches_equivalence() {
    // Branch outcomes depend on loaded data: exercises misprediction,
    // squash, and RAT recovery.
    let data: Vec<(u64, i64)> =
        (0..64).map(|i| (0x2000 + 8 * i, ((i * 2654435761u64) % 97) as i64 - 48)).collect();
    let p = assemble(
        "t",
        r"
        li   a0, 0x2000
        li   a1, 64
        li   a2, 0          # positives
        li   a3, 0          # sum of positives
    loop:
        ld   t0, 0(a0)
        blez t0, skip
        addi a2, a2, 1
        add  a3, a3, t0
    skip:
        addi a0, a0, 8
        addi a1, a1, -1
        bnez a1, loop
        halt
    ",
    )
    .unwrap();
    let stats = assert_equivalent(&p, &data);
    assert!(stats.mispredicts > 0, "pseudo-random filter must mispredict sometimes");
    assert!(stats.squashed > 0);
}

#[test]
fn call_ret_equivalence() {
    let p = assemble(
        "t",
        r"
        li   a0, 3
        li   a1, 0
    loop:
        call bump
        addi a0, a0, -1
        bnez a0, loop
        halt
    bump:
        addi a1, a1, 10
        ret
    ",
    )
    .unwrap();
    let stats = assert_equivalent(&p, &[]);
    // RAS should make the returns essentially free.
    assert!(stats.mispredicts <= 4, "returns should be RAS-predicted");
}

#[test]
fn indirect_jump_with_no_prediction_stalls_but_completes() {
    let p = assemble(
        "t",
        r"
        li   t0, 4       # absolute instruction index of `target`
        jr   t0
        halt             # skipped
        halt             # skipped
    target:
        li   a0, 99
        halt
    ",
    )
    .unwrap();
    assert_equivalent(&p, &[]);
}

#[test]
fn rdcycle_measures_load_latency() {
    // fence; t0=rdcycle; ld; t1=rdcycle — the delta must reflect a DRAM
    // miss the first time and an L1 hit the second time.
    let p = assemble(
        "t",
        r"
        li   a1, 0x8000
        rdcycle t0
        ld   a2, 0(a1)
        rdcycle t1
        ld   a3, 0(a1)
        rdcycle t2
        sub  a4, t1, t0    # cold latency
        sub  a5, t2, t1    # warm latency
        halt
    ",
    )
    .unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.run(&UnsafeBaseline).unwrap();
    let cold = sim.reg(A4);
    let warm = sim.reg(A5);
    assert!(cold > 100, "cold access should pay DRAM latency, measured {cold}");
    assert!(warm < 20, "warm access should be an L1 hit, measured {warm}");
    assert!(cold > warm + 50, "cold {cold} vs warm {warm} must be clearly separable");
}

#[test]
fn transient_wrong_path_load_fills_cache() {
    // The Spectre substrate: a load on the mispredicted path is squashed
    // but its cache fill persists.
    const COND: u64 = 0x10_0000;
    const PROBE: u64 = 0x20_0000;
    let p = assemble(
        "t",
        r"
        li   a1, 0x100000
        li   a2, 0x200000
        ld   t0, 0(a1)       # slow (cold) condition load
        bnez t0, skip        # predicted not-taken (cold counters), actually taken
        ld   t3, 0(a2)       # transient: never commits
    skip:
        halt
    ",
    )
    .unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.mem.write_i64(COND, 1); // branch is actually taken
    sim.run(&UnsafeBaseline).unwrap();
    assert_eq!(sim.reg(T3), 0, "transient load never updates architectural state");
    assert!(sim.stats().mispredicts >= 1);
    assert!(
        sim.hierarchy().contains(PROBE),
        "squashed load's cache fill must persist (this is the side channel)"
    );

    // Control run: when the branch is correctly predicted not-taken and
    // actually not taken, the load commits and also fills the cache.
    let mut sim2 = Simulator::new(&p, CoreConfig::default());
    sim2.mem.write_i64(COND, 0);
    sim2.run(&UnsafeBaseline).unwrap();
    assert!(sim2.hierarchy().contains(PROBE));
}

#[test]
fn flush_evicts_line() {
    let p = assemble(
        "t",
        r"
        li   a1, 0x8000
        ld   a2, 0(a1)     # fill
        fence
        flush 0(a1)
        fence
        rdcycle t0
        ld   a3, 0(a1)     # must miss again
        rdcycle t1
        sub  a4, t1, t0
        halt
    ",
    )
    .unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.run(&UnsafeBaseline).unwrap();
    assert!(sim.reg(A4) > 100, "flushed line must re-miss, measured {}", sim.reg(A4));
}

#[test]
fn missing_halt_is_an_error() {
    let p = assemble("t", "li a0, 1\nli a1, 2").unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    assert!(matches!(sim.run(&UnsafeBaseline), Err(SimError::PcOutOfRange { .. })));
}

#[test]
fn infinite_loop_hits_cycle_limit() {
    let p = assemble("t", "x: j x\nhalt").unwrap();
    let config = CoreConfig { max_cycles: 10_000, ..CoreConfig::default() };
    let mut sim = Simulator::new(&p, config);
    assert_eq!(sim.run(&UnsafeBaseline), Err(SimError::CycleLimit { max_cycles: 10_000 }));
}

#[test]
fn small_rob_still_correct() {
    let mut config = CoreConfig::default().with_rob_size(16);
    config.iq_size = 8;
    let p = assemble(
        "t",
        r"
        li   a0, 200
        li   a1, 0
        li   a2, 0x4000
    loop:
        sd   a1, 0(a2)
        ld   t0, 0(a2)
        add  a1, t0, a0
        addi a0, a0, -1
        bnez a0, loop
        halt
    ",
    )
    .unwrap();
    let mut machine = Machine::new();
    machine.run(&p, 1_000_000).unwrap();
    let mut sim = Simulator::new(&p, config);
    sim.run(&UnsafeBaseline).unwrap();
    assert_eq!(sim.arch_fingerprint(), machine.arch_fingerprint());
}

#[test]
fn mlp_is_exploited_for_independent_loads() {
    // Eight independent cold loads should overlap (memory-level
    // parallelism), taking far less than 8 × DRAM latency.
    let p = assemble(
        "t",
        r"
        li   a1, 0x100000
        rdcycle t0
        ld   a2, 0(a1)
        ld   a3, 4096(a1)
        ld   a4, 8192(a1)
        ld   a5, 12288(a1)
        ld   a6, 16384(a1)
        ld   a7, 20480(a1)
        ld   s2, 24576(a1)
        ld   s3, 28672(a1)
        rdcycle t1
        sub  s4, t1, t0
        halt
    ",
    )
    .unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    sim.run(&UnsafeBaseline).unwrap();
    let elapsed = sim.reg(S4);
    assert!(elapsed < 2 * 138, "8 independent misses must overlap; measured {elapsed} cycles");
}

#[test]
fn dependent_loads_serialize() {
    // A pointer chase cannot overlap: each load's address depends on the
    // previous load's value.
    const BASE: u64 = 0x30_0000;
    let p = assemble(
        "t",
        r"
        li   a1, 0x300000
        rdcycle t0
        ld   a1, 0(a1)
        ld   a1, 0(a1)
        ld   a1, 0(a1)
        ld   a1, 0(a1)
        rdcycle t1
        sub  a2, t1, t0
        halt
    ",
    )
    .unwrap();
    let mut sim = Simulator::new(&p, CoreConfig::default());
    // Each node points to the next, 1 MiB apart (always cold).
    for i in 0..4u64 {
        sim.mem.write_i64(BASE + i * 0x10_0000, (BASE + (i + 1) * 0x10_0000) as i64);
    }
    sim.run(&UnsafeBaseline).unwrap();
    let elapsed = sim.reg(A2);
    assert!(elapsed > 4 * 138 - 20, "dependent misses must serialize; measured {elapsed}");
}

#[test]
fn mshr_limit_bounds_memory_level_parallelism() {
    // With a single MSHR, eight independent cold loads serialize; the
    // default 16 MSHRs let them overlap. Same program, same data — only
    // the structural limit changes.
    let p = assemble(
        "t",
        r"
        li   a1, 0x100000
        rdcycle t0
        ld   a2, 0(a1)
        ld   a3, 4096(a1)
        ld   a4, 8192(a1)
        ld   a5, 12288(a1)
        ld   a6, 16384(a1)
        ld   a7, 20480(a1)
        ld   s2, 24576(a1)
        ld   s3, 28672(a1)
        rdcycle t1
        sub  s4, t1, t0
        halt
    ",
    )
    .unwrap();
    let run = |mshrs: usize| {
        let config = CoreConfig { mshr_count: mshrs, ..CoreConfig::default() };
        let mut sim = Simulator::new(&p, config);
        sim.run(&UnsafeBaseline).unwrap();
        sim.reg(S4)
    };
    let parallel = run(16);
    let serial = run(1);
    assert!(parallel < 2 * 138, "16 MSHRs: misses overlap ({parallel})");
    assert!(serial > 8 * 120, "1 MSHR: misses serialize ({serial})");
}

/// Fence-style policy: nothing executes while an older branch is
/// unresolved.
#[derive(Debug)]
struct FenceStyle;

impl SpeculationPolicy for FenceStyle {
    fn execute_wait<'a>(&self, instr: &'a DynInstr) -> Option<Wait<'a>> {
        Some(Wait { rule: "test:fence-style", deps: &instr.shadow, release: Release::Resolve })
    }
}

/// The per-instruction events the memory-ordering, squash and timing
/// tests assert on, each tagged with the instruction's sequence number.
#[derive(Debug, Default, PartialEq, Eq)]
struct Events {
    /// `(cycle, seq, pc)` of every dispatch.
    dispatched: Vec<(u64, Seq, u32)>,
    /// `(cycle, seq)` of every issue.
    issued: Vec<(u64, Seq)>,
    /// `(cycle, seq)` of every writeback.
    written_back: Vec<(u64, Seq)>,
    /// `(cycle, load seq, store seq)` of every store-to-load forward.
    forwarded: Vec<(u64, Seq, Seq)>,
    /// `(cycle, seq)` of every commit.
    committed: Vec<(u64, Seq)>,
    /// `(seq, policy delay cycles)` of every commit.
    delays: Vec<(Seq, u64)>,
    /// `(cycle, seq, policy delay cycles so far, blame)` of every policy
    /// block.
    blocked: Vec<(u64, Seq, u64, Blame)>,
    /// Every squashed sequence number.
    squashed: Vec<Seq>,
}

impl TraceSink for Events {
    fn on_dispatch(&mut self, cycle: u64, instr: &DynInstr) {
        self.dispatched.push((cycle, instr.seq, instr.pc));
    }

    fn on_issue(&mut self, cycle: u64, instr: &DynInstr) {
        self.issued.push((cycle, instr.seq));
    }

    fn on_writeback(&mut self, cycle: u64, instr: &DynInstr) {
        self.written_back.push((cycle, instr.seq));
    }

    fn on_forward(&mut self, cycle: u64, instr: &DynInstr, store_seq: Seq) {
        self.forwarded.push((cycle, instr.seq, store_seq));
    }

    fn on_commit(&mut self, cycle: u64, instr: &DynInstr) {
        self.committed.push((cycle, instr.seq));
        self.delays.push((instr.seq, instr.policy_delay_cycles));
    }

    fn on_policy_block(&mut self, cycle: u64, instr: &DynInstr, blame: &Blame) {
        self.blocked.push((cycle, instr.seq, instr.policy_delay_cycles, *blame));
    }

    fn on_squash(&mut self, _cycle: u64, seq: Seq, _pc: u32) {
        self.squashed.push(seq);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl Events {
    fn pc(&self, seq: Seq) -> u32 {
        self.dispatched.iter().find(|d| d.1 == seq).expect("dispatched").2
    }

    /// The committed instance of the instruction at `pc`: `(cycle, seq)`.
    fn commit_of(&self, pc: u32) -> (u64, Seq) {
        *self.committed.iter().find(|c| self.pc(c.1) == pc).expect("committed")
    }

    /// The cycle the instance `seq` issued.
    fn issue_of(&self, seq: Seq) -> u64 {
        self.issued.iter().find(|i| i.1 == seq).expect("issued").0
    }

    /// The cycle the instance `seq` wrote back.
    fn writeback_of(&self, seq: Seq) -> u64 {
        self.written_back.iter().find(|w| w.1 == seq).expect("written back").0
    }
}

/// Program counters of the instructions matching `kind`, in program order.
fn pcs(program: &Program, kind: impl Fn(&Instr) -> bool) -> Vec<u32> {
    (0..program.instrs.len() as u32).filter(|&pc| kind(&program.instrs[pc as usize])).collect()
}

/// One run of `program` under `policy` with an [`Events`] sink attached,
/// stepping every cycle under the reference oracle if `check`: the
/// outcome, the events, the oracle's counts, and the architectural
/// fingerprint.
fn simulate(
    program: &Program,
    config: &CoreConfig,
    init_mem: &[(u64, i64)],
    policy: &dyn SpeculationPolicy,
    check: bool,
) -> (Result<SimStats, SimError>, Events, ReferenceChecks, u64) {
    let mut sim = Simulator::new(program, config.clone());
    for &(a, v) in init_mem {
        sim.mem.write_i64(a, v);
    }
    if check {
        sim.enable_reference_checking();
    }
    sim.attach_tracer(Box::<Events>::default());
    let outcome = sim.run(policy);
    let events =
        sim.take_tracer().expect("attached").into_any().downcast::<Events>().expect("type");
    (outcome, *events, sim.reference_checks(), sim.arch_fingerprint())
}

/// Runs `program` twice under `policy` — jumping over quiet cycles, and
/// stepping every cycle under the reference oracle — asserts both runs
/// record the same events and statistics and that the architectural state
/// matches the interpreter's, and returns the statistics, the events, and
/// the oracle's counts.
fn run_recorded_under(
    program: &Program,
    config: CoreConfig,
    init_mem: &[(u64, i64)],
    policy: &dyn SpeculationPolicy,
) -> (SimStats, Events, ReferenceChecks) {
    let mut machine = Machine::new();
    for &(a, v) in init_mem {
        machine.mem.write_i64(a, v);
    }
    machine.run(program, 50_000_000).expect("interpreter run");
    let (stepped, stepped_events, checks, stepped_fp) =
        simulate(program, &config, init_mem, policy, true);
    let (jumped, events, _, fp) = simulate(program, &config, init_mem, policy, false);
    let stats = jumped.expect("simulator run");
    assert_eq!(stepped.expect("stepped run"), stats, "jumping changed the statistics");
    assert_eq!(stepped_events, events, "jumping changed the recorded events");
    assert_eq!(fp, machine.arch_fingerprint(), "architectural state differs");
    assert_eq!(stepped_fp, fp);
    (stats, events, checks)
}

/// [`run_recorded_under`] the unsafe baseline, returning the oracle's
/// lookup count.
fn run_recorded(
    program: &Program,
    config: CoreConfig,
    init_mem: &[(u64, i64)],
) -> (SimStats, Events, u64) {
    let (stats, events, checks) = run_recorded_under(program, config, init_mem, &UnsafeBaseline);
    (stats, events, checks.lookups)
}

#[test]
fn squashed_in_flight_stores_leave_the_store_queue() {
    // Two wrong-path stores are squashed: one with its address known, to
    // the very address the correct path then loads, and one whose address
    // is still unknown at the squash. A store queue that kept either
    // would forward the squashed 77 or block the load forever.
    let p = assemble(
        "t",
        r"
        li   a1, 0x100000
        li   a2, 0x2000
        li   t1, 77
        li   t4, 3
        ld   t0, 0(a1)      # slow (cold) condition: 1
        bnez t0, skip       # predicted not-taken (cold counters), actually taken
        sd   t1, 0(a2)      # wrong path: address known at the squash
        div  t2, t0, t4     # wrong path: 20 cycles
        sd   t1, 0(t2)      # wrong path: address unknown at the squash
    skip:
        ld   a3, 0(a2)      # must read memory
        halt
    ",
    )
    .unwrap();
    let (stats, events, _) =
        run_recorded(&p, CoreConfig::default(), &[(0x10_0000, 1), (0x2000, 5)]);
    assert!(stats.mispredicts >= 1);
    let stores = pcs(&p, |i| i.is_store());
    for &pc in &stores {
        assert!(
            events.squashed.iter().any(|&s| events.pc(s) == pc),
            "the wrong-path store at pc {pc} must have been dispatched and squashed"
        );
    }
    assert!(events.forwarded.is_empty(), "nothing may forward from a squashed store");
}

#[test]
fn forwards_from_the_youngest_exact_match_once_its_data_arrives() {
    // Two stores to the same doubleword, both held in flight by a
    // two-miss pointer chase at the ROB head: the older one's data is
    // ready at once, the younger one's waits on a DRAM miss. The load
    // must wait for the younger store's data and forward it, not the
    // older value.
    let p = assemble(
        "t",
        r"
        li   a0, 0x200000
        li   a1, 0x100000
        li   a2, 0x2000
        li   t1, 7
        ld   t5, 0(a0)      # pointer chase: holds the ROB head ...
        ld   t6, 0(t5)      # ... for two DRAM latencies
        sd   t1, 0(a2)      # older exact match: data ready
        ld   t2, 0(a1)      # slow: 42, after one DRAM latency
        sd   t2, 0(a2)      # younger exact match: data pending on the miss
        ld   a3, 0(a2)      # forwards 42
        halt
    ",
    )
    .unwrap();
    let (_, events, _) =
        run_recorded(&p, CoreConfig::default(), &[(0x20_0000, 0x40_0000), (0x10_0000, 42)]);
    let stores = pcs(&p, |i| i.is_store());
    let loads = pcs(&p, |i| i.is_load());
    let (_, slow) = events.commit_of(loads[2]);
    let (_, probe) = events.commit_of(loads[3]);
    let (older_commit, _) = events.commit_of(stores[0]);
    let (_, younger) = events.commit_of(stores[1]);
    assert_eq!(
        events.forwarded.iter().map(|f| (f.1, f.2)).collect::<Vec<_>>(),
        vec![(probe, younger)],
        "the load forwards once, from the younger store"
    );
    let forward_cycle = events.forwarded[0].0;
    assert!(
        forward_cycle >= events.writeback_of(slow),
        "the forward waited for the younger store's data"
    );
    assert!(forward_cycle < older_commit, "both stores were in flight at the forward");
}

#[test]
fn partial_overlap_waits_for_the_store_to_commit() {
    // A word store covers half of a doubleword load and all of a byte
    // load, at other addresses and widths: neither may forward, and both
    // read memory only once the store has written it at commit (commit
    // runs before issue within a cycle).
    let p = assemble(
        "t",
        r"
        li   a2, 0x2000
        li   t1, 0x1122334455667788
        sw   t1, 4(a2)      # bytes 4..8
        ld   a3, 0(a2)      # bytes 0..8: partial overlap
        lb   a4, 5(a2)      # byte 5, inside the word: partial overlap
        halt
    ",
    )
    .unwrap();
    let (_, events, _) = run_recorded(&p, CoreConfig::default(), &[(0x2000, -1)]);
    assert!(events.forwarded.is_empty(), "a partial overlap never forwards");
    let (store_commit, _) = events.commit_of(pcs(&p, |i| i.is_store())[0]);
    for pc in pcs(&p, |i| i.is_load()) {
        let (_, seq) = events.commit_of(pc);
        assert!(
            events.issue_of(seq) >= store_commit,
            "the load at pc {pc} must not issue before the overlapping store commits"
        );
    }
}

#[test]
fn repeated_mispredicts_behind_a_long_latency_head() {
    // A DRAM miss holds the ROB head for 3000 cycles while a loop of
    // unpredictable branches mispredicts over and over behind it: squashed
    // dispatches push sequence numbers far past the head's by more than a
    // ROB's worth, and ROB positions are reused many times, while the head
    // and its early consumer stay in flight and later consumers rename
    // against it. Cold loads on the branches' fall-through paths are
    // squashed mid-miss, so their completions pop long after later
    // dispatches reused their positions. Every positioned lookup is
    // checked against a binary search by the reference oracle.
    let p = assemble(
        "t",
        r"
        li   a1, 0x300000
        li   a4, 0x400000    # cold lines, one per iteration
        li   t0, 12345       # LCG state
        li   t3, 60          # iterations
        li   s5, 0
        ld   s2, 0(a1)       # the long-latency head
        add  s3, s2, s2      # early consumer, waiting across every squash
    loop:
        li   t4, 1103515245
        mul  t0, t0, t4
        addi t0, t0, 12345
        srli t1, t0, 16
        andi t1, t1, 1
        beqz t1, skip        # pseudo-random direction: mispredicts often
        ld   s7, 0(a4)       # a miss, squashed whenever the path was wrong
        add  s5, s5, s7
    skip:
        xor  s6, s2, t0      # late consumer of the head
        addi a4, a4, 4096
        addi t3, t3, -1
        bnez t3, loop
        halt
    ",
    )
    .unwrap();
    let config = CoreConfig::default().with_dram_latency(3000);
    let rob = config.rob_size as u64;
    let (stats, events, lookups) = run_recorded(&p, config, &[(0x30_0000, 9)]);
    assert!(lookups > 0, "the oracle must have checked positioned lookups");
    let loads = pcs(&p, |i| i.is_load());
    let (head_commit, head) = events.commit_of(loads[0]);
    assert!(head_commit > 3000, "the head load waited on DRAM");
    let squashed_behind_head = events.squashed.iter().filter(|&&s| s > head).count() as u64;
    let furthest = events
        .dispatched
        .iter()
        .filter(|d| d.0 < head_commit)
        .map(|d| d.1)
        .max()
        .expect("dispatches");
    assert!(
        squashed_behind_head > rob && furthest - head > rob,
        "sequence numbers must run more than a ROB ({rob}) past the live head: \
         {squashed_behind_head} squashed, furthest dispatch {} past it",
        furthest - head
    );
    assert!(stats.mispredicts > 10, "the loop must mispredict repeatedly ({})", stats.mispredicts);
    let squashed_misses = events
        .squashed
        .iter()
        .filter(|&&s| events.pc(s) == loads[1] && events.issued.iter().any(|i| i.1 == s))
        .count();
    assert!(squashed_misses > 0, "some cold loads must be squashed after issuing");
}

/// A DRAM-bound pointer chase feeding a branch: four dependent misses,
/// each a long run of quiet cycles, while the `addi` behind the branch is
/// delayed every cycle by a fence-style policy.
fn chase_program() -> (Program, Vec<(u64, i64)>) {
    let p = assemble(
        "t",
        r"
        li   a1, 0x300000
        ld   a1, 0(a1)
        ld   a1, 0(a1)
        ld   a1, 0(a1)
        ld   a1, 0(a1)
        beqz a1, done       # unresolved until the chase ends
        addi a2, a2, 1      # delayed by FenceStyle every cycle until then
    done:
        halt
    ",
    )
    .unwrap();
    let mem = (0..4u64).map(|i| (0x30_0000 + i * 0x10_0000, (0x40_0000 + i * 0x10_0000) as i64));
    (p, mem.collect())
}

#[test]
fn cycle_limit_is_exact_across_a_jump() {
    let (p, mem) = chase_program();
    let (stats, events, checks) = run_recorded_under(&p, CoreConfig::default(), &mem, &FenceStyle);
    assert!(checks.quiet_cycles > 3 * 100, "the chase must be mostly quiet cycles: {checks:?}");
    let c = stats.cycles;
    let limited = |max_cycles: u64, check: bool| {
        let config = CoreConfig { max_cycles, ..CoreConfig::default() };
        let (outcome, events, _, _) = simulate(&p, &config, &mem, &FenceStyle, check);
        (outcome, events)
    };
    assert_eq!(limited(c, false).0, Err(SimError::CycleLimit { max_cycles: c }));
    assert_eq!(limited(c + 1, false).0.expect("runs").cycles, c);

    // A limit inside a quiet stretch ends the jump on it: the last block
    // falls on the cycle before the limit, as when stepping every cycle.
    let first_miss = events.writeback_of(events.committed[1].1);
    let mid = first_miss - 50;
    let (jumped, jumped_events) = limited(mid, false);
    let (stepped, stepped_events) = limited(mid, true);
    assert_eq!(jumped, Err(SimError::CycleLimit { max_cycles: mid }));
    assert_eq!(stepped, jumped);
    assert_eq!(jumped_events, stepped_events);
    assert_eq!(jumped_events.blocked.last().map(|b| b.0), Some(mid - 1));
}

#[test]
fn policy_blocks_stay_per_cycle_across_a_jump() {
    let (p, mem) = chase_program();
    let (_, events, _) = run_recorded_under(&p, CoreConfig::default(), &mem, &FenceStyle);
    let addi = events.commit_of(pcs(&p, |i| matches!(i, Instr::AluImm { .. }))[1]).1;
    let blocks: Vec<_> = events.blocked.iter().filter(|b| b.1 == addi).collect();
    let delay = events.delays.iter().find(|d| d.0 == addi).expect("committed").1;
    assert!(delay > 4 * 120, "the addi waits out four DRAM misses ({delay} cycles)");
    assert_eq!(blocks.len() as u64, delay, "one block per policy delay cycle");
    for (k, b) in blocks.iter().enumerate() {
        assert_eq!(b.0, blocks[0].0 + k as u64, "blocked on consecutive cycles");
        assert_eq!(b.2, k as u64, "each cycle's block comes before its increment");
        assert_eq!(b.3, blocks[0].3, "the blame stays put while the branch is unresolved");
    }
}

#[test]
fn a_late_store_address_wakes_the_load_the_next_cycle() {
    // The store's address waits on a DRAM miss; the younger load, to an
    // unrelated address, is parked on it meanwhile, and issues the cycle
    // after the store's address is generated (address generation is
    // applied after that cycle's issue decisions).
    let p = assemble(
        "t",
        r"
        li   a1, 0x100000
        li   a2, 0x2000
        li   t1, 5
        ld   t0, 0(a1)      # DRAM miss: the index
        add  t2, a2, t0
        sd   t1, 0(t2)      # address known only after the miss
        ld   a3, 64(a2)     # parked on the unknown store address
        halt
    ",
    )
    .unwrap();
    let (_, events, checks) =
        run_recorded_under(&p, CoreConfig::default(), &[(0x10_0000, 8)], &UnsafeBaseline);
    assert!(checks.parked_loads > 100, "the load stayed parked: {checks:?}");
    let store = events.commit_of(pcs(&p, |i| i.is_store())[0]).1;
    let load = events.commit_of(pcs(&p, |i| i.is_load())[1]).1;
    assert!(events.issue_of(store) > 120, "the store address waited on DRAM");
    assert_eq!(events.issue_of(load), events.issue_of(store) + 1);
}

#[test]
fn late_store_data_wakes_the_forward_in_its_writeback_cycle() {
    // The store's address is known at once but its data comes from a
    // DRAM miss: the exact-match load is parked on the data and forwards
    // in the cycle the data is written back (writeback precedes issue).
    let p = assemble(
        "t",
        r"
        li   a1, 0x100000
        li   a2, 0x2000
        ld   t0, 0(a1)      # DRAM miss: the data
        sd   t0, 0(a2)
        ld   a3, 0(a2)      # parked on the store's data, then forwards 42
        halt
    ",
    )
    .unwrap();
    let (_, events, checks) =
        run_recorded_under(&p, CoreConfig::default(), &[(0x10_0000, 42)], &UnsafeBaseline);
    assert!(checks.parked_loads > 100, "the load stayed parked: {checks:?}");
    let loads = pcs(&p, |i| i.is_load());
    let data = events.commit_of(loads[0]).1;
    let probe = events.commit_of(loads[1]).1;
    let store = events.commit_of(pcs(&p, |i| i.is_store())[0]).1;
    assert_eq!(events.forwarded.iter().map(|f| (f.1, f.2)).collect::<Vec<_>>(), [(probe, store)]);
    assert!(events.writeback_of(data) > 120, "the data waited on DRAM");
    assert_eq!(events.forwarded[0].0, events.writeback_of(data));
    assert_eq!(events.issue_of(probe), events.writeback_of(data));
}

#[test]
fn a_partial_overlap_wakes_the_load_in_the_store_commit_cycle() {
    // A DRAM miss at the ROB head holds the overlapping store in flight;
    // the load is parked until the store commits, and issues in that
    // same cycle (commit precedes issue).
    let p = assemble(
        "t",
        r"
        li   a1, 0x100000
        li   a2, 0x2000
        li   t1, 0x11223344
        ld   t0, 0(a1)      # DRAM miss holding the ROB head
        sw   t1, 4(a2)      # bytes 4..8
        ld   a3, 0(a2)      # bytes 0..8: partial overlap, parked to commit
        halt
    ",
    )
    .unwrap();
    let (_, events, checks) =
        run_recorded_under(&p, CoreConfig::default(), &[(0x2000, -1)], &UnsafeBaseline);
    assert!(checks.parked_loads > 100, "the load stayed parked: {checks:?}");
    assert!(events.forwarded.is_empty(), "a partial overlap never forwards");
    let (store_commit, _) = events.commit_of(pcs(&p, |i| i.is_store())[0]);
    let load = events.commit_of(pcs(&p, |i| i.is_load())[1]).1;
    assert!(store_commit > 120, "the store drained after the miss");
    assert_eq!(events.issue_of(load), store_commit);
}
