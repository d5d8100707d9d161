//! Contract observers over the [`TraceSink`] event stream.
//!
//! Following the hardware-software-contracts taxonomy (Guarnieri et al.),
//! each observer is a *projection* of one recorded pipeline event stream;
//! noninterference for an observer means the projections of two
//! low-equivalent runs are identical. Three observers are provided, ordered
//! from coarse to fine:
//!
//! * [`Observer::CommitTiming`] — the committed-instruction stream with
//!   cycle timestamps: what an architectural attacker with a cycle counter
//!   sees (the `ct` contract — timing included, or it could not catch cache
//!   interference from a transient transmit).
//! * [`Observer::CacheLine`] — the sequence of cache-line addresses filled
//!   or flushed by demand accesses plus committed-store lines, *without*
//!   timestamps: the classic cache-attacker observation.
//! * [`Observer::FullTrace`] — every recorded pipeline event: fetches,
//!   issues, policy blocks, squashes, commits, with cycles and addresses.
//!   The strongest (finest) observer; anything leaky under the other two is
//!   leaky here.
//!
//! Events deliberately record **no data values**. Under a *secure* delaying
//! scheme the wrong-path register file legitimately holds secret-dependent
//! values (the secret load may execute; only its *transmission* is blocked),
//! so an observer that recorded results would flag every scheme as leaky and
//! the gate would be vacuously red. Addresses, PCs, cycles, and blame rules
//! are exactly the signals a microarchitectural attacker can sample.

use levioso_uarch::trace::{Blame, TraceSink};
use levioso_uarch::{DynInstr, Seq};
use std::any::Any;

/// Cache line size used for address coarsening (matches `CoreConfig`).
const LINE_MASK: u64 = !63;

/// One recorded pipeline event (data values intentionally absent; see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// Instruction fetched.
    Fetch {
        /// Cycle of the fetch.
        cycle: u64,
        /// Program counter fetched.
        pc: u32,
    },
    /// Instruction renamed into the ROB.
    Dispatch {
        /// Cycle of the dispatch.
        cycle: u64,
        /// Dynamic sequence number.
        seq: Seq,
        /// Program counter.
        pc: u32,
    },
    /// Instruction issued to a functional unit.
    Issue {
        /// Cycle of the issue.
        cycle: u64,
        /// Dynamic sequence number.
        seq: Seq,
        /// Program counter.
        pc: u32,
        /// Effective address, for memory instructions.
        addr: Option<u64>,
        /// Whether the access changed cache state (demand access or flush;
        /// hit-only invisible accesses are excluded by the core).
        touched_cache: bool,
        /// Whether the access *filled* a line (L1 miss) or flushed one —
        /// i.e. changed cache *content*, not just replacement state. This is
        /// what the cache-line observer watches.
        filled: bool,
    },
    /// The speculation policy delayed an otherwise-ready instruction.
    Block {
        /// Cycle of the blocked issue attempt.
        cycle: u64,
        /// Dynamic sequence number.
        seq: Seq,
        /// Program counter.
        pc: u32,
        /// Delay-attribution rule that fired.
        rule: &'static str,
    },
    /// A load was served by store-to-load forwarding.
    Forward {
        /// Cycle of the forward.
        cycle: u64,
        /// Load's sequence number.
        seq: Seq,
        /// Supplying store's sequence number.
        store_seq: Seq,
    },
    /// A control instruction resolved.
    Resolve {
        /// Cycle of the resolution.
        cycle: u64,
        /// Dynamic sequence number.
        seq: Seq,
        /// Program counter.
        pc: u32,
        /// Whether the prediction was wrong.
        mispredicted: bool,
    },
    /// An in-flight instruction was squashed.
    Squash {
        /// Cycle of the squash.
        cycle: u64,
        /// Squashed sequence number.
        seq: Seq,
        /// Squashed program counter.
        pc: u32,
    },
    /// Instruction wrote back its result.
    Writeback {
        /// Cycle of the writeback.
        cycle: u64,
        /// Dynamic sequence number.
        seq: Seq,
        /// Program counter.
        pc: u32,
    },
    /// Instruction committed architecturally.
    Commit {
        /// Cycle of the commit.
        cycle: u64,
        /// Dynamic sequence number.
        seq: Seq,
        /// Program counter.
        pc: u32,
        /// Cache line written, for committed stores.
        store_line: Option<u64>,
    },
}

impl std::fmt::Display for Ev {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Ev::Fetch { cycle, pc } => write!(f, "@{cycle} fetch pc={pc}"),
            Ev::Dispatch { cycle, seq, pc } => write!(f, "@{cycle} dispatch #{seq} pc={pc}"),
            Ev::Issue { cycle, seq, pc, addr, touched_cache, filled } => {
                write!(f, "@{cycle} issue #{seq} pc={pc}")?;
                if let Some(a) = addr {
                    write!(f, " addr={a:#x}")?;
                }
                if touched_cache {
                    write!(f, " [cache]")?;
                }
                if filled {
                    write!(f, " [fill]")?;
                }
                Ok(())
            }
            Ev::Block { cycle, seq, pc, rule } => {
                write!(f, "@{cycle} block #{seq} pc={pc} rule={rule}")
            }
            Ev::Forward { cycle, seq, store_seq } => {
                write!(f, "@{cycle} forward #{seq} from store #{store_seq}")
            }
            Ev::Resolve { cycle, seq, pc, mispredicted } => {
                write!(f, "@{cycle} resolve #{seq} pc={pc} mispredicted={mispredicted}")
            }
            Ev::Squash { cycle, seq, pc } => write!(f, "@{cycle} squash #{seq} pc={pc}"),
            Ev::Writeback { cycle, seq, pc } => write!(f, "@{cycle} writeback #{seq} pc={pc}"),
            Ev::Commit { cycle, seq, pc, store_line } => {
                write!(f, "@{cycle} commit #{seq} pc={pc}")?;
                if let Some(l) = store_line {
                    write!(f, " store-line={l:#x}")?;
                }
                Ok(())
            }
        }
    }
}

/// A [`TraceSink`] that records the full event stream for later projection.
#[derive(Debug, Default)]
pub struct Recorder {
    /// The recorded events, in hook-firing order.
    pub events: Vec<Ev>,
}

impl TraceSink for Recorder {
    fn on_fetch(&mut self, cycle: u64, pc: u32, _instr: &levioso_isa::Instr) {
        self.events.push(Ev::Fetch { cycle, pc });
    }

    fn on_dispatch(&mut self, cycle: u64, instr: &DynInstr) {
        self.events.push(Ev::Dispatch { cycle, seq: instr.seq, pc: instr.pc });
    }

    fn on_issue(&mut self, cycle: u64, instr: &DynInstr) {
        self.events.push(Ev::Issue {
            cycle,
            seq: instr.seq,
            pc: instr.pc,
            addr: instr.mem_addr,
            touched_cache: instr.touched_cache,
            filled: instr.holds_mshr || matches!(instr.instr, levioso_isa::Instr::Flush { .. }),
        });
    }

    fn on_policy_block(&mut self, cycle: u64, instr: &DynInstr, blame: &Blame) {
        self.events.push(Ev::Block { cycle, seq: instr.seq, pc: instr.pc, rule: blame.rule });
    }

    fn on_forward(&mut self, cycle: u64, instr: &DynInstr, store_seq: Seq) {
        self.events.push(Ev::Forward { cycle, seq: instr.seq, store_seq });
    }

    fn on_resolve(&mut self, cycle: u64, instr: &DynInstr, mispredicted: bool) {
        self.events.push(Ev::Resolve { cycle, seq: instr.seq, pc: instr.pc, mispredicted });
    }

    fn on_squash(&mut self, cycle: u64, seq: Seq, pc: u32) {
        self.events.push(Ev::Squash { cycle, seq, pc });
    }

    fn on_writeback(&mut self, cycle: u64, instr: &DynInstr) {
        self.events.push(Ev::Writeback { cycle, seq: instr.seq, pc: instr.pc });
    }

    fn on_commit(&mut self, cycle: u64, instr: &DynInstr) {
        let store_line =
            if instr.instr.is_store() { instr.mem_addr.map(|a| a & LINE_MASK) } else { None };
        self.events.push(Ev::Commit { cycle, seq: instr.seq, pc: instr.pc, store_line });
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// One observation contract: a projection of the recorded event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observer {
    /// Committed (pc, cycle) pairs — the architectural+timing contract.
    CommitTiming,
    /// Cache-line addresses of fills/flushes and committed stores, no
    /// timestamps — the cache-attacker contract.
    CacheLine,
    /// Every recorded event — the finest contract.
    FullTrace,
}

impl Observer {
    /// All observers, coarse to fine (fixed order used by reports).
    pub const ALL: [Observer; 3] =
        [Observer::CommitTiming, Observer::CacheLine, Observer::FullTrace];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Observer::CommitTiming => "commit-timing",
            Observer::CacheLine => "cache-line",
            Observer::FullTrace => "full-trace",
        }
    }
}

impl std::fmt::Display for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One projected observation: the compared key plus the index of its source
/// event in the full stream (context only — never part of equality).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obs {
    /// The value two runs must agree on.
    pub key: ObsKey,
    /// Index of the source event in the recorder's stream.
    pub src: usize,
}

/// The compared portion of an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKey {
    /// A cache-line address (cache-line observer).
    Line(u64),
    /// A committed pc at a cycle (commit-timing observer).
    Commit {
        /// Committed program counter.
        pc: u32,
        /// Commit cycle.
        cycle: u64,
    },
    /// A verbatim event (full-trace observer).
    Event(Ev),
}

impl std::fmt::Display for ObsKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ObsKey::Line(l) => write!(f, "line {l:#x}"),
            ObsKey::Commit { pc, cycle } => write!(f, "commit pc={pc} @{cycle}"),
            ObsKey::Event(ev) => write!(f, "{ev}"),
        }
    }
}

/// The observations `observer` makes of `events`, in stream order: the
/// one filter [`project`] collects and [`diff`] walks.
fn observations(observer: Observer, events: &[Ev]) -> impl Iterator<Item = Obs> + '_ {
    events.iter().enumerate().filter_map(move |(src, &ev)| {
        let key = match observer {
            Observer::CommitTiming => match ev {
                Ev::Commit { cycle, pc, .. } => ObsKey::Commit { pc, cycle },
                _ => return None,
            },
            Observer::CacheLine => match ev {
                Ev::Issue { addr: Some(a), filled: true, .. } => ObsKey::Line(a & LINE_MASK),
                Ev::Commit { store_line: Some(l), .. } => ObsKey::Line(l),
                _ => return None,
            },
            Observer::FullTrace => ObsKey::Event(ev),
        };
        Some(Obs { key, src })
    })
}

/// Projects a recorded event stream through an observer. [`diff`] walks
/// the same observations without collecting them; this is the reference
/// it is tested against.
pub fn project(observer: Observer, events: &[Ev]) -> Vec<Obs> {
    observations(observer, events).collect()
}

/// The first point where two projected observation streams differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index into the projected streams of the first mismatch.
    pub index: usize,
    /// Rendered observation from run A (`"<end of trace>"` if A is shorter).
    pub a: String,
    /// Rendered observation from run B (`"<end of trace>"` if B is shorter).
    pub b: String,
    /// Delay-attribution rule of the nearest policy-block event preceding
    /// the divergent observation in run A's full stream, if any — the
    /// context the gate reports so a leak can be traced to the rule that
    /// should have (but did not) delay the transmitter. Owned (not
    /// `&'static str`) so divergences round-trip through the persisted
    /// sweep-cell cache.
    pub rule_context: Option<String>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "obs #{}: A: {} | B: {} | last rule: {}",
            self.index,
            self.a,
            self.b,
            self.rule_context.as_deref().unwrap_or("<none>")
        )
    }
}

/// Diffs two runs under an observer: walks both projections side by side
/// and returns the first divergent observation, or `None` if they agree.
/// Equal to diffing the two [`project`]ions, without collecting them.
pub fn diff(observer: Observer, a_events: &[Ev], b_events: &[Ev]) -> Option<Divergence> {
    let (mut a, mut b) = (observations(observer, a_events), observations(observer, b_events));
    let mut index = 0;
    loop {
        let (oa, ob) = (a.next(), b.next());
        if oa.is_none() && ob.is_none() {
            return None;
        }
        if oa.map(|o| o.key) != ob.map(|o| o.key) {
            let src = oa.map_or(a_events.len(), |o| o.src);
            let rule_context = a_events[..src].iter().rev().find_map(|ev| match *ev {
                Ev::Block { rule, .. } => Some(rule.to_string()),
                _ => None,
            });
            let render = |o: Option<Obs>| {
                o.map_or_else(|| "<end of trace>".to_string(), |o| o.key.to_string())
            };
            return Some(Divergence { index, a: render(oa), b: render(ob), rule_context });
        }
        index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use levioso_support::{Rng, Xoshiro256pp};

    const END: &str = "<end of trace>";

    /// The plain definition of `diff`: project both runs in full, then
    /// compare the projections index by index.
    fn reference(observer: Observer, a_events: &[Ev], b_events: &[Ev]) -> Option<Divergence> {
        let a = project(observer, a_events);
        let b = project(observer, b_events);
        (0..a.len().max(b.len())).find_map(|i| {
            let (oa, ob) = (a.get(i), b.get(i));
            (oa.map(|o| o.key) != ob.map(|o| o.key)).then(|| {
                let src = oa.map_or(a_events.len(), |o| o.src);
                Divergence {
                    index: i,
                    a: oa.map_or_else(|| END.to_string(), |o| o.key.to_string()),
                    b: ob.map_or_else(|| END.to_string(), |o| o.key.to_string()),
                    rule_context: a_events[..src].iter().rev().find_map(|ev| match *ev {
                        Ev::Block { rule, .. } => Some(rule.to_string()),
                        _ => None,
                    }),
                }
            })
        })
    }

    const RULES: [&str; 3] = ["levioso:true-dep-unresolved", "fence:older-branch", "stt:taint"];

    /// A random event over small value ranges, so mutations often leave a
    /// projection unchanged (two addresses in one line, a non-commit event
    /// under commit-timing) as well as changing it.
    fn random_ev(rng: &mut Xoshiro256pp) -> Ev {
        let (cycle, seq, pc) = (rng.below(4), rng.below(4), rng.below(4) as u32);
        let mut coin = || rng.below(2) == 0;
        let (c1, c2, c3) = (coin(), coin(), coin());
        let addr = rng.below(4) * 40;
        match rng.below(9) {
            0 => Ev::Fetch { cycle, pc },
            1 => Ev::Dispatch { cycle, seq, pc },
            2 => Ev::Issue {
                cycle,
                seq,
                pc,
                addr: c1.then_some(addr),
                touched_cache: c2,
                filled: c3,
            },
            3 => Ev::Block { cycle, seq, pc, rule: RULES[rng.below(3) as usize] },
            4 => Ev::Forward { cycle, seq, store_seq: rng.below(4) },
            5 => Ev::Resolve { cycle, seq, pc, mispredicted: c1 },
            6 => Ev::Squash { cycle, seq, pc },
            7 => Ev::Writeback { cycle, seq, pc },
            _ => Ev::Commit { cycle, seq, pc, store_line: c1.then_some(addr & LINE_MASK) },
        }
    }

    /// Seeded streams, each paired with a copy that has one event replaced,
    /// is truncated, or has a tail appended, diffed both ways round under
    /// every observer.
    #[test]
    fn streamed_diff_equals_the_projected_reference() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xd1ff);
        let mut diverged = [0usize; 3];
        for case in 0..600 {
            let len = rng.usize_in(0..48);
            let a: Vec<Ev> = (0..len).map(|_| random_ev(&mut rng)).collect();
            let mut b = a.clone();
            match (case % 3, b.len()) {
                (0, n) if n > 0 => {
                    let i = rng.usize_in(0..n);
                    b[i] = random_ev(&mut rng);
                }
                (1, n) => b.truncate(rng.usize_in(0..n + 1)),
                _ => {
                    let tail = rng.usize_in(1..6);
                    b.extend((0..tail).map(|_| random_ev(&mut rng)));
                }
            }
            for (oi, observer) in Observer::ALL.into_iter().enumerate() {
                for (x, y) in [(&a, &b), (&b, &a)] {
                    let got = diff(observer, x, y);
                    assert_eq!(got, reference(observer, x, y), "case {case}, {observer}");
                    diverged[oi] += got.is_some() as usize;
                }
            }
        }
        for (observer, n) in Observer::ALL.iter().zip(diverged) {
            assert!((200..1200).contains(&n), "{observer}: {n} of 1200 diffs diverged");
        }
    }

    #[test]
    fn diff_edge_cases_match_the_reference() {
        let commit = |cycle, pc| Ev::Commit { cycle, seq: 0, pc, store_line: None };
        let block = Ev::Block { cycle: 0, seq: 0, pc: 0, rule: "fence:older-branch" };
        let fetch = Ev::Fetch { cycle: 0, pc: 0 };
        let div = |index, a: &str, b: &str, rule: Option<&str>| Divergence {
            index,
            a: a.to_string(),
            b: b.to_string(),
            rule_context: rule.map(str::to_string),
        };
        let cases = [
            ("both empty", vec![], vec![], None),
            (
                "A shorter",
                vec![commit(1, 0), block],
                vec![commit(1, 0), commit(2, 1)],
                Some(div(1, END, "commit pc=1 @2", Some("fence:older-branch"))),
            ),
            (
                "B shorter",
                vec![commit(1, 0), commit(2, 1)],
                vec![commit(1, 0)],
                Some(div(1, "commit pc=1 @2", END, None)),
            ),
            (
                "at observation 0",
                vec![fetch, block, commit(1, 0)],
                vec![fetch, block, commit(2, 0)],
                Some(div(0, "commit pc=0 @1", "commit pc=0 @2", Some("fence:older-branch"))),
            ),
            (
                "no earlier block",
                vec![fetch, commit(1, 0), block, commit(3, 1)],
                vec![fetch, commit(2, 0), block, commit(3, 1)],
                Some(div(0, "commit pc=0 @1", "commit pc=0 @2", None)),
            ),
            ("equal", vec![fetch, block, commit(1, 0)], vec![fetch, commit(1, 0)], None),
        ];
        for (name, a, b, expected) in cases {
            let got = diff(Observer::CommitTiming, &a, &b);
            assert_eq!(got, expected, "{name}");
            for observer in Observer::ALL {
                assert_eq!(
                    diff(observer, &a, &b),
                    reference(observer, &a, &b),
                    "{name}, {observer}"
                );
            }
        }
    }
}
