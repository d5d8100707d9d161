//! Function-local reaching-definitions dataflow.
//!
//! Used by the *static* Levioso variant (the F3 ablation) to close branch
//! dependencies over register dataflow at compile time: an instruction
//! inherits the branch dependencies of every definition that may reach its
//! operands. The default Levioso configuration instead lets the hardware
//! propagate dependencies through the rename map, which is both more
//! precise and interprocedurally sound; see `levioso_core`.

use crate::bitset::BitSet;
use crate::cfg::FunctionCfg;
use levioso_isa::{Program, Reg};
use std::collections::BTreeMap;

/// Reaching-definitions solution for one function.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// Definition sites: `defs[id] = (instruction index, defined register)`.
    pub defs: Vec<(u32, Reg)>,
    def_of_instr: BTreeMap<u32, usize>,
    /// Per-block IN set over definition ids.
    block_in: Vec<BitSet>,
}

impl ReachingDefs {
    /// Computes reaching definitions for `cfg`.
    ///
    /// Registers are assumed dead at function entry: lev64 functions receive
    /// arguments in registers, so this is an *under*-approximation across
    /// calls — which is exactly why the static variant exists only as an
    /// ablation (see crate docs).
    pub fn compute(cfg: &FunctionCfg, program: &Program) -> Self {
        // Enumerate definitions.
        let mut defs: Vec<(u32, Reg)> = Vec::new();
        let mut def_of_instr = BTreeMap::new();
        let mut defs_of_reg: BTreeMap<Reg, Vec<usize>> = BTreeMap::new();
        for i in cfg.instrs() {
            if let Some(rd) = program.instrs[i as usize].dest() {
                let id = defs.len();
                defs.push((i, rd));
                def_of_instr.insert(i, id);
                defs_of_reg.entry(rd).or_default().push(id);
            }
        }
        let nd = defs.len();

        // Per-block GEN/KILL.
        let nb = cfg.blocks.len();
        let mut gen = vec![BitSet::new(nd); nb];
        let mut kill = vec![BitSet::new(nd); nb];
        for (bi, b) in cfg.blocks.iter().enumerate() {
            for i in b.instrs() {
                if let Some(&id) = def_of_instr.get(&i) {
                    let (_, rd) = defs[id];
                    for &other in &defs_of_reg[&rd] {
                        if other != id {
                            kill[bi].insert(other);
                        }
                        // A later def in the same block re-kills; handled by
                        // overwriting gen below.
                    }
                    // Remove same-register earlier gens of this block.
                    let mut new_gen = BitSet::new(nd);
                    for g in gen[bi].iter() {
                        if defs[g].1 != rd {
                            new_gen.insert(g);
                        }
                    }
                    new_gen.insert(id);
                    gen[bi] = new_gen;
                }
            }
        }

        // Iterate IN/OUT to fixpoint.
        let mut block_in = vec![BitSet::new(nd); nb];
        let mut block_out = vec![BitSet::new(nd); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for bi in 0..nb {
                let mut inp = BitSet::new(nd);
                for &p in &cfg.blocks[bi].preds {
                    inp.union_with(&block_out[p]);
                }
                if inp != block_in[bi] {
                    block_in[bi] = inp;
                    changed = true;
                }
                // OUT = GEN ∪ (IN − KILL)
                let mut out = gen[bi].clone();
                for d in block_in[bi].iter() {
                    if !kill[bi].contains(d) {
                        out.insert(d);
                    }
                }
                if out != block_out[bi] {
                    block_out[bi] = out;
                    changed = true;
                }
            }
        }

        ReachingDefs { defs, def_of_instr, block_in }
    }

    /// Definition ids that may reach the use of `reg` at `instr`.
    ///
    /// # Panics
    ///
    /// Panics if `instr` does not belong to the analyzed function.
    pub fn reaching_at(
        &self,
        cfg: &FunctionCfg,
        _program: &Program,
        instr: u32,
        reg: Reg,
    ) -> Vec<usize> {
        if reg.is_zero() {
            return Vec::new();
        }
        let bi = cfg.block_of(instr).expect("instruction not in function");
        // Walk the block applying defs until we hit `instr`.
        let mut live: BTreeMap<Reg, Vec<usize>> = BTreeMap::new();
        for d in self.block_in[bi].iter() {
            live.entry(self.defs[d].1).or_default().push(d);
        }
        for i in cfg.blocks[bi].instrs() {
            if i == instr {
                break;
            }
            if let Some(&id) = self.def_of_instr.get(&i) {
                live.insert(self.defs[id].1, vec![id]);
            }
        }
        live.get(&reg).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use levioso_isa::assemble;
    use levioso_isa::reg::*;

    fn setup(src: &str) -> (Program, FunctionCfg, ReachingDefs) {
        let p = assemble("t", src).unwrap();
        let cfg = build_cfg(&p);
        let f = cfg.functions[0].clone();
        let rd = ReachingDefs::compute(&f, &p);
        (p, f, rd)
    }

    fn def_instrs(rd: &ReachingDefs, ids: Vec<usize>) -> Vec<u32> {
        let mut v: Vec<u32> = ids.into_iter().map(|d| rd.defs[d].0).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn straight_line_last_def_wins() {
        let (p, f, rd) = setup("li a0, 1\nli a0, 2\nmv a1, a0\nhalt");
        let ids = rd.reaching_at(&f, &p, 2, A0);
        assert_eq!(def_instrs(&rd, ids), vec![1]);
    }

    #[test]
    fn diamond_merges_both_defs() {
        let (p, f, rd) = setup(
            r"
            beqz a0, else     # 0
            li a1, 1          # 1
            j join            # 2
        else:
            li a1, 2          # 3
        join:
            mv a2, a1         # 4
            halt
        ",
        );
        let ids = rd.reaching_at(&f, &p, 4, A1);
        assert_eq!(def_instrs(&rd, ids), vec![1, 3], "both arm defs reach the join");
    }

    #[test]
    fn loop_carried_definition_reaches_body() {
        let (p, f, rd) = setup(
            r"
            li a0, 5          # 0
        loop:
            addi a0, a0, -1   # 1
            bnez a0, loop     # 2
            halt
        ",
        );
        // The use of a0 at instruction 1 sees both the initial def (0) and
        // the loop-carried def (1 itself, from the previous iteration).
        let ids = rd.reaching_at(&f, &p, 1, A0);
        assert_eq!(def_instrs(&rd, ids), vec![0, 1]);
    }

    #[test]
    fn x0_has_no_definitions() {
        let (p, f, rd) = setup("add a0, zero, zero\nhalt");
        assert!(rd.reaching_at(&f, &p, 0, ZERO).is_empty());
    }

    #[test]
    fn kill_is_per_register() {
        let (p, f, rd) = setup("li a0, 1\nli a1, 2\nadd a2, a0, a1\nhalt");
        assert_eq!(def_instrs(&rd, rd.reaching_at(&f, &p, 2, A0)), vec![0]);
        assert_eq!(def_instrs(&rd, rd.reaching_at(&f, &p, 2, A1)), vec![1]);
    }
}
