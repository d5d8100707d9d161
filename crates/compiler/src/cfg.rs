//! Control-flow graph construction.
//!
//! Analysis is *function-local*, mirroring how a production compiler pass
//! (the paper's LLVM implementation) computes control dependence. Functions
//! are discovered from call sites (`jal` with a live link register); inside
//! a function, a call is a fall-through edge (callees are assumed to
//! return), and `jalr` (returns and other indirect jumps) exit the function
//! to a virtual exit node.
//!
//! Any instruction the analysis cannot place in a well-formed function —
//! code shared between functions, branches into other functions, blocks
//! with no path to an exit — is handled conservatively downstream (it is
//! annotated [`levioso_isa::DepSet::AllOlder`]).

use levioso_isa::{Instr, Program};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A basic block: instructions `[start, end)` of the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// First instruction index.
    pub start: u32,
    /// One past the last instruction index.
    pub end: u32,
    /// Successor block ids (may include the virtual exit id).
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
}

impl Block {
    /// Iterates over the instruction indices in this block.
    pub fn instrs(&self) -> impl Iterator<Item = u32> {
        self.start..self.end
    }

    /// Index of the block's last instruction.
    pub fn terminator(&self) -> u32 {
        self.end - 1
    }
}

/// The control-flow graph of one discovered function.
#[derive(Debug, Clone)]
pub struct FunctionCfg {
    /// Entry instruction index.
    pub entry_instr: u32,
    /// Basic blocks; block 0 is the entry block.
    pub blocks: Vec<Block>,
    /// Whether the function was well-formed enough to analyze. When false,
    /// every instruction of the function must be treated conservatively.
    pub analyzable: bool,
    block_of: BTreeMap<u32, usize>,
}

impl FunctionCfg {
    /// Id of the virtual exit node (one past the last real block).
    pub fn exit(&self) -> usize {
        self.blocks.len()
    }

    /// Total node count including the virtual exit.
    pub fn node_count(&self) -> usize {
        self.blocks.len() + 1
    }

    /// Block containing instruction `instr`, if it belongs to this function.
    pub fn block_of(&self, instr: u32) -> Option<usize> {
        self.block_of.get(&instr).copied()
    }

    /// Successor lists over all nodes (real blocks then the virtual exit,
    /// which has none), as needed by the dominator algorithms.
    pub fn succ_table(&self) -> Vec<Vec<usize>> {
        let mut t: Vec<Vec<usize>> = self.blocks.iter().map(|b| b.succs.clone()).collect();
        t.push(Vec::new()); // virtual exit
        t
    }

    /// Instruction indices belonging to this function, ascending.
    pub fn instrs(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks.iter().flat_map(|b| b.instrs())
    }

    /// Conditional-branch instructions terminating blocks of this function:
    /// `(block id, instruction index)` pairs in ascending instruction order.
    pub fn branch_points(&self, program: &Program) -> Vec<(usize, u32)> {
        let mut out = Vec::new();
        for (bi, b) in self.blocks.iter().enumerate() {
            let t = b.terminator();
            if program.instrs[t as usize].is_branch() {
                out.push((bi, t));
            }
        }
        out
    }
}

/// Control-flow graphs for a whole program.
#[derive(Debug, Clone)]
pub struct ProgramCfg {
    /// Discovered functions; index 0 is the function entered at
    /// instruction 0.
    pub functions: Vec<FunctionCfg>,
    /// For each instruction, the function that owns it (or `None` for code
    /// that is unreachable or claimed ambiguously).
    pub function_of: Vec<Option<usize>>,
}

/// Where control can go after one instruction, function-locally.
enum Flow {
    Fallthrough,
    BranchTo(u32),
    GotoTo(u32),
    CallReturnsTo,
    ExitsFunction,
}

fn flow_of(ins: &Instr) -> Flow {
    match *ins {
        Instr::Branch { target, .. } => Flow::BranchTo(target),
        Instr::Jal { rd, target } => {
            if rd.is_zero() {
                Flow::GotoTo(target)
            } else {
                Flow::CallReturnsTo
            }
        }
        Instr::Jalr { .. } | Instr::Halt => Flow::ExitsFunction,
        _ => Flow::Fallthrough,
    }
}

/// Builds per-function control-flow graphs for `program`.
///
/// Never fails: malformed regions are reported through
/// [`FunctionCfg::analyzable`] / [`ProgramCfg::function_of`] and handled
/// conservatively by annotation.
pub fn build_cfg(program: &Program) -> ProgramCfg {
    let n = program.instrs.len();
    let mut function_of: Vec<Option<usize>> = vec![None; n];

    // Function entries: instruction 0, plus every call target.
    let mut entries: Vec<u32> = vec![0];
    for ins in &program.instrs {
        if let Instr::Jal { rd, target } = *ins {
            if !rd.is_zero() {
                entries.push(target);
            }
        }
    }
    entries.sort_unstable();
    entries.dedup();
    if n == 0 {
        return ProgramCfg { functions: Vec::new(), function_of };
    }
    entries.retain(|&e| (e as usize) < n);

    // Phase 1: claim instructions per function; code reachable from two
    // entries poisons *both* functions (the shared region has in-edges
    // neither function-local CFG models).
    let mut claims: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); entries.len()];
    let mut poisoned = vec![false; entries.len()];
    for (fi, &entry) in entries.iter().enumerate() {
        let mut work = VecDeque::from([entry]);
        while let Some(i) = work.pop_front() {
            if (i as usize) >= n {
                poisoned[fi] = true;
                continue;
            }
            match function_of[i as usize] {
                Some(owner) if owner == fi => continue, // already claimed by us
                Some(owner) => {
                    poisoned[fi] = true;
                    poisoned[owner] = true;
                    continue;
                }
                None => {}
            }
            function_of[i as usize] = Some(fi);
            claims[fi].insert(i);
            match flow_of(&program.instrs[i as usize]) {
                Flow::Fallthrough | Flow::CallReturnsTo => work.push_back(i + 1),
                Flow::BranchTo(t) => {
                    work.push_back(i + 1);
                    work.push_back(t);
                }
                Flow::GotoTo(t) => work.push_back(t),
                Flow::ExitsFunction => {}
            }
        }
    }

    // Phase 2: build per-function CFGs.
    let mut functions = Vec::with_capacity(entries.len());
    for (fi, &entry) in entries.iter().enumerate() {
        functions.push(build_function_cfg(program, entry, &claims[fi], !poisoned[fi]));
    }

    ProgramCfg { functions, function_of }
}

fn build_function_cfg(
    program: &Program,
    entry: u32,
    claimed: &BTreeSet<u32>,
    mut analyzable: bool,
) -> FunctionCfg {
    // Leaders: entry, control-transfer targets, instructions following a
    // control transfer, and any discontinuity in the claimed set.
    let mut leaders = BTreeSet::new();
    leaders.insert(entry);
    for &i in claimed {
        match flow_of(&program.instrs[i as usize]) {
            Flow::BranchTo(t) => {
                leaders.insert(t);
                leaders.insert(i + 1);
            }
            Flow::GotoTo(t) => {
                leaders.insert(t);
                leaders.insert(i + 1);
            }
            Flow::CallReturnsTo | Flow::ExitsFunction => {
                leaders.insert(i + 1);
            }
            Flow::Fallthrough => {
                if !claimed.contains(&(i + 1)) {
                    leaders.insert(i + 1);
                }
            }
        }
    }

    // Carve claimed instructions into maximal runs split at leaders.
    let mut blocks: Vec<Block> = Vec::new();
    let mut block_of = BTreeMap::new();
    let mut run_start: Option<u32> = None;
    let mut prev: Option<u32> = None;
    let close_run =
        |start: u32, end: u32, blocks: &mut Vec<Block>, block_of: &mut BTreeMap<u32, usize>| {
            let id = blocks.len();
            for i in start..end {
                block_of.insert(i, id);
            }
            blocks.push(Block { start, end, succs: Vec::new(), preds: Vec::new() });
        };
    for &i in claimed {
        let discontinuous = prev.is_some_and(|p| p + 1 != i);
        if run_start.is_some() && (discontinuous || leaders.contains(&i)) {
            close_run(run_start.unwrap(), prev.unwrap() + 1, &mut blocks, &mut block_of);
            run_start = None;
        }
        if run_start.is_none() {
            run_start = Some(i);
        }
        prev = Some(i);
        // A control transfer (or exit) terminates the current run.
        match flow_of(&program.instrs[i as usize]) {
            Flow::Fallthrough | Flow::CallReturnsTo => {}
            _ => {
                close_run(run_start.unwrap(), i + 1, &mut blocks, &mut block_of);
                run_start = None;
            }
        }
    }
    if let (Some(s), Some(p)) = (run_start, prev) {
        close_run(s, p + 1, &mut blocks, &mut block_of);
    }

    // Entry must be block 0: rotate if needed (claimed iteration is by
    // instruction order; the entry is the smallest claimed instruction of
    // the function in well-formed code, but a backward call target could
    // break that).
    if let Some(&entry_block) = block_of.get(&entry) {
        if entry_block != 0 {
            blocks.swap(0, entry_block);
            block_of = BTreeMap::new();
            for (id, b) in blocks.iter().enumerate() {
                for i in b.instrs() {
                    block_of.insert(i, id);
                }
            }
        }
    } else {
        analyzable = false;
    }

    // Successor edges.
    let exit = blocks.len();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (bi, b) in blocks.iter().enumerate() {
        let t = b.terminator();
        let link =
            |to: Option<u32>, edges: &mut Vec<(usize, usize)>, analyzable: &mut bool| match to {
                Some(i) => match block_of.get(&i) {
                    Some(&tb) => edges.push((bi, tb)),
                    None => *analyzable = false, // leaves the function
                },
                None => edges.push((bi, exit)),
            };
        match flow_of(&program.instrs[t as usize]) {
            Flow::Fallthrough | Flow::CallReturnsTo => {
                link(Some(t + 1), &mut edges, &mut analyzable)
            }
            Flow::BranchTo(target) => {
                link(Some(target), &mut edges, &mut analyzable);
                link(Some(t + 1), &mut edges, &mut analyzable);
            }
            Flow::GotoTo(target) => link(Some(target), &mut edges, &mut analyzable),
            Flow::ExitsFunction => link(None, &mut edges, &mut analyzable),
        }
    }
    for (from, to) in edges {
        if !blocks[from].succs.contains(&to) {
            blocks[from].succs.push(to);
        }
        if to < exit && !blocks[to].preds.contains(&from) {
            blocks[to].preds.push(from);
        }
    }

    FunctionCfg { entry_instr: entry, blocks, analyzable, block_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use levioso_isa::assemble;

    fn cfg_of(src: &str) -> ProgramCfg {
        build_cfg(&assemble("t", src).unwrap())
    }

    #[test]
    fn straight_line_is_one_block() {
        let c = cfg_of("nop\nnop\nhalt");
        assert_eq!(c.functions.len(), 1);
        let f = &c.functions[0];
        assert!(f.analyzable);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].succs, vec![f.exit()]);
    }

    #[test]
    fn diamond_shape() {
        // 0: beqz -> 2 blocks for arms, join, halt
        let c = cfg_of(
            r"
            beqz a0, else
            addi a1, a1, 1
            j join
        else:
            addi a1, a1, 2
        join:
            halt
        ",
        );
        let f = &c.functions[0];
        assert!(f.analyzable);
        assert_eq!(f.blocks.len(), 4);
        // Entry block = branch alone.
        assert_eq!(f.blocks[0].end - f.blocks[0].start, 1);
        assert_eq!(f.blocks[0].succs.len(), 2);
        // Both arms feed the join block.
        let join = f.block_of(4).unwrap();
        assert_eq!(f.blocks[join].preds.len(), 2);
    }

    #[test]
    fn loop_back_edge() {
        let c = cfg_of(
            r"
            li a0, 3
        loop:
            addi a0, a0, -1
            bnez a0, loop
            halt
        ",
        );
        let f = &c.functions[0];
        assert!(f.analyzable);
        let loop_block = f.block_of(1).unwrap();
        // The loop block's branch goes back to itself and on to the halt.
        assert!(f.blocks[loop_block].succs.contains(&loop_block));
        assert_eq!(f.blocks[loop_block].succs.len(), 2);
    }

    #[test]
    fn functions_are_separated() {
        let c = cfg_of(
            r"
            li a0, 5
            call f
            halt
        f:
            add a0, a0, a0
            ret
        ",
        );
        assert_eq!(c.functions.len(), 2);
        assert!(c.functions.iter().all(|f| f.analyzable));
        // Call is a fall-through edge inside main.
        let main = &c.functions[0];
        assert_eq!(main.blocks.len(), 2, "call splits main into two blocks");
        assert_eq!(c.function_of[3], Some(1));
        assert_eq!(c.function_of[4], Some(1));
        // f's ret exits to the virtual exit.
        let f = &c.functions[1];
        let ret_block = f.block_of(4).unwrap();
        assert_eq!(f.blocks[ret_block].succs, vec![f.exit()]);
    }

    #[test]
    fn branch_into_other_function_is_unanalyzable() {
        let c = cfg_of(
            r"
            call f
            beqz a0, inside
            halt
        f:
        inside:
            ret
        ",
        );
        // main branches into f's body: main must be flagged.
        assert!(!c.functions[0].analyzable);
    }

    #[test]
    fn unreachable_code_is_unclaimed() {
        let c = cfg_of(
            r"
            halt
            nop
            nop
        ",
        );
        assert_eq!(c.function_of, vec![Some(0), None, None]);
    }

    #[test]
    fn branch_points_lists_conditional_branches_only() {
        let p = assemble(
            "t",
            r"
            beqz a0, end
            j end
        end:
            halt
        ",
        )
        .unwrap();
        let c = build_cfg(&p);
        let bps = c.functions[0].branch_points(&p);
        assert_eq!(bps.len(), 1);
        assert_eq!(bps[0].1, 0);
    }
}
