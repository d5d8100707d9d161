//! Program images: instructions, labels, and optional annotations.

use crate::{Annotations, Instr};
use std::collections::BTreeMap;
use std::fmt;

/// A complete lev64 program: the instruction vector, symbolic labels, and
/// (after compilation) Levioso branch-dependency [`Annotations`].
///
/// The entry point is always instruction index 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Program name, used in reports.
    pub name: String,
    /// The instruction vector; the program counter indexes into it.
    pub instrs: Vec<Instr>,
    /// Label name → instruction index (deterministic iteration order).
    pub labels: BTreeMap<String, u32>,
    /// Levioso branch-dependency annotations, if the program has been
    /// through `levioso_compiler::annotate`.
    pub annotations: Option<Annotations>,
}

impl Program {
    /// Creates a program from raw instructions.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Self {
        Program { name: name.into(), instrs, labels: BTreeMap::new(), annotations: None }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Instruction index of `label`, if defined.
    pub fn label(&self, label: &str) -> Option<u32> {
        self.labels.get(label).copied()
    }

    /// Checks structural validity: all branch/jump targets are in range and
    /// annotations (if present) cover every instruction and reference only
    /// control-flow instructions.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] describing the first problem found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let n = self.instrs.len() as u32;
        for (i, ins) in self.instrs.iter().enumerate() {
            let target = match *ins {
                Instr::Branch { target, .. } | Instr::Jal { target, .. } => Some(target),
                _ => None,
            };
            if let Some(t) = target {
                if t >= n {
                    return Err(ValidateError::TargetOutOfRange { at: i as u32, target: t });
                }
            }
        }
        if let Some(a) = &self.annotations {
            if a.len() != self.instrs.len() {
                return Err(ValidateError::AnnotationLength {
                    expected: self.instrs.len(),
                    got: a.len(),
                });
            }
            for (i, set) in a.iter() {
                if let crate::DepSet::Exact(v) = set {
                    for &b in v {
                        if b >= n {
                            return Err(ValidateError::DepOutOfRange { at: i as u32, dep: b });
                        }
                        if !self.instrs[b as usize].is_control() {
                            return Err(ValidateError::DepNotBranch { at: i as u32, dep: b });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Renders the program as assembly text with synthesized `L<idx>:`
    /// labels at every branch target, which [`crate::assemble`] reads back
    /// to the same instructions.
    pub fn to_asm_string(&self) -> String {
        use std::collections::BTreeSet;
        let mut targets = BTreeSet::new();
        for ins in &self.instrs {
            match *ins {
                Instr::Branch { target, .. } | Instr::Jal { target, .. } => {
                    targets.insert(target);
                }
                _ => {}
            }
        }
        let mut out = String::new();
        for (i, ins) in self.instrs.iter().enumerate() {
            if targets.contains(&(i as u32)) {
                out.push_str(&format!("L{i}:\n"));
            }
            let line = match *ins {
                Instr::Branch { cond, rs1, rs2, target } => {
                    format!("{} {rs1}, {rs2}, L{target}", cond.mnemonic())
                }
                Instr::Jal { rd, target } => format!("jal {rd}, L{target}"),
                other => other.to_string(),
            };
            out.push_str("    ");
            out.push_str(&line);
            out.push('\n');
        }
        // A trailing label (branch to one-past-the-end is invalid, but a
        // label at len() can exist in handwritten code); not emitted here.
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# program: {} ({} instructions)", self.name, self.instrs.len())?;
        f.write_str(&self.to_asm_string())
    }
}

/// Structural validation failure for a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidateError {
    /// A branch or jump targets an instruction index outside the program.
    TargetOutOfRange {
        /// Instruction index of the offending control instruction.
        at: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// Annotation vector length does not match the instruction count.
    AnnotationLength {
        /// Expected length (instruction count).
        expected: usize,
        /// Actual annotation length.
        got: usize,
    },
    /// A dependency references an out-of-range instruction.
    DepOutOfRange {
        /// Annotated instruction.
        at: u32,
        /// The out-of-range dependency.
        dep: u32,
    },
    /// A dependency references an instruction that is not a branch/jump.
    DepNotBranch {
        /// Annotated instruction.
        at: u32,
        /// The non-branch dependency.
        dep: u32,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ValidateError::TargetOutOfRange { at, target } => {
                write!(f, "instruction {at}: control target {target} out of range")
            }
            ValidateError::AnnotationLength { expected, got } => {
                write!(f, "annotation length {got} does not match instruction count {expected}")
            }
            ValidateError::DepOutOfRange { at, dep } => {
                write!(f, "instruction {at}: dependency {dep} out of range")
            }
            ValidateError::DepNotBranch { at, dep } => {
                write!(f, "instruction {at}: dependency {dep} is not a control instruction")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;
    use crate::{Annotations, BranchCond, DepSet};

    fn branch(target: u32) -> Instr {
        Instr::Branch { cond: BranchCond::Eq, rs1: A0, rs2: ZERO, target }
    }

    #[test]
    fn validate_accepts_well_formed() {
        let mut p = Program::new("t", vec![branch(2), Instr::Nop, Instr::Halt]);
        p.annotations =
            Some(Annotations::new(vec![DepSet::empty(), DepSet::Exact(vec![0]), DepSet::AllOlder]));
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_target() {
        let p = Program::new("t", vec![branch(9)]);
        assert_eq!(p.validate(), Err(ValidateError::TargetOutOfRange { at: 0, target: 9 }));
    }

    #[test]
    fn validate_rejects_bad_annotations() {
        let mut p = Program::new("t", vec![Instr::Nop, Instr::Halt]);
        p.annotations = Some(Annotations::new(vec![DepSet::empty()]));
        assert!(matches!(p.validate(), Err(ValidateError::AnnotationLength { .. })));

        p.annotations = Some(Annotations::new(vec![DepSet::Exact(vec![1]), DepSet::empty()]));
        assert_eq!(p.validate(), Err(ValidateError::DepNotBranch { at: 0, dep: 1 }));

        p.annotations = Some(Annotations::new(vec![DepSet::Exact(vec![5]), DepSet::empty()]));
        assert_eq!(p.validate(), Err(ValidateError::DepOutOfRange { at: 0, dep: 5 }));
    }

    #[test]
    fn asm_rendering_labels_targets() {
        let p = Program::new("t", vec![branch(2), Instr::Nop, Instr::Halt]);
        let s = p.to_asm_string();
        assert!(s.contains("L2:"), "{s}");
        assert!(s.contains("beq a0, zero, L2"), "{s}");
    }
}
