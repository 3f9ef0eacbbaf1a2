//! Basic blocks and their terminators.

use crate::addr::{Addr, INST_BYTES};
use crate::inst::{OpClass, StaticInst};

/// Identifier of a basic block inside a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// How control leaves a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Conditional branch: `taken` target or fall-through.
    CondBranch { taken: Addr, not_taken: Addr },
    /// Unconditional jump.
    Jump { target: Addr },
    /// Call: control goes to `target`; `link` is the return address
    /// (pushed on the RAS).
    Call { target: Addr, link: Addr },
    /// Return through the RAS.
    Return,
    /// No control transfer: execution falls through to `next`.
    FallThrough { next: Addr },
}

impl Terminator {
    /// All statically-known successor addresses (RAS targets excluded).
    pub fn static_successors(&self) -> Vec<Addr> {
        match *self {
            Terminator::CondBranch { taken, not_taken } => vec![taken, not_taken],
            Terminator::Jump { target } => vec![target],
            Terminator::Call { target, .. } => vec![target],
            Terminator::Return => vec![],
            Terminator::FallThrough { next } => vec![next],
        }
    }
}

/// A straight-line run of instructions ending in (at most) one control
/// transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    pub id: BlockId,
    /// PC of the first instruction.
    pub start: Addr,
    /// The instructions, contiguous from `start` at 4-byte stride.  When the
    /// terminator is a CTI, the final instruction is that CTI.
    pub insts: Vec<StaticInst>,
    pub term: Terminator,
}

impl BasicBlock {
    /// PC one past the last instruction (= fall-through address).
    pub fn end(&self) -> Addr {
        self.start + self.insts.len() as u64 * INST_BYTES
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the block holds no instructions (invalid in a finished
    /// program; used transiently by builders).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Whether `pc` addresses an instruction in this block.
    pub fn contains(&self, pc: Addr) -> bool {
        pc >= self.start && pc < self.end() && (pc - self.start).is_multiple_of(INST_BYTES)
    }

    /// The instruction at `pc`, if it lies in this block.
    pub fn inst_at(&self, pc: Addr) -> Option<&StaticInst> {
        if !self.contains(pc) {
            return None;
        }
        let idx = ((pc - self.start) / INST_BYTES) as usize;
        self.insts.get(idx)
    }

    /// Internal consistency: contiguous PCs, CTI placement matching the
    /// terminator.
    pub fn validate(&self) -> Result<(), String> {
        if self.insts.is_empty() {
            return Err(format!("block {:?} at {:#x} is empty", self.id, self.start));
        }
        for (i, inst) in self.insts.iter().enumerate() {
            let expect = self.start + i as u64 * INST_BYTES;
            if inst.pc != expect {
                return Err(format!(
                    "block {:?}: inst {} has pc {:#x}, expected {:#x}",
                    self.id, i, inst.pc, expect
                ));
            }
            let is_last = i + 1 == self.insts.len();
            if inst.op.is_cti() && !is_last {
                return Err(format!(
                    "block {:?}: CTI at {:#x} is not the final instruction",
                    self.id, inst.pc
                ));
            }
        }
        let last = self.insts.last().unwrap();
        let term_matches = match self.term {
            Terminator::CondBranch { not_taken, .. } => {
                last.op == OpClass::CondBranch && not_taken == self.end()
            }
            Terminator::Jump { target } => {
                last.op == OpClass::Jump && last.target == Some(target)
            }
            Terminator::Call { target, link } => {
                last.op == OpClass::Call && last.target == Some(target) && link == self.end()
            }
            Terminator::Return => last.op == OpClass::Return,
            Terminator::FallThrough { next } => !last.op.is_cti() && next == self.end(),
        };
        if !term_matches {
            return Err(format!(
                "block {:?}: terminator {:?} inconsistent with final inst {:?}",
                self.id, self.term, last
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Reg;

    fn mkblock(start: Addr, n_plain: usize, term: Terminator) -> BasicBlock {
        let mut insts = Vec::new();
        for i in 0..n_plain {
            insts.push(StaticInst::plain(
                start + i as u64 * 4,
                OpClass::IntAlu,
                Some(Reg::int(1)),
                Some(Reg::int(2)),
                None,
            ));
        }
        let tail_pc = start + n_plain as u64 * 4;
        match term {
            Terminator::CondBranch { taken, .. } => {
                insts.push(StaticInst::cti(tail_pc, OpClass::CondBranch, Some(taken)))
            }
            Terminator::Jump { target } => {
                insts.push(StaticInst::cti(tail_pc, OpClass::Jump, Some(target)))
            }
            Terminator::Call { target, .. } => {
                insts.push(StaticInst::cti(tail_pc, OpClass::Call, Some(target)))
            }
            Terminator::Return => insts.push(StaticInst::cti(tail_pc, OpClass::Return, None)),
            Terminator::FallThrough { .. } => {}
        }
        BasicBlock {
            id: BlockId(0),
            start,
            insts,
            term,
        }
    }

    #[test]
    fn end_and_contains() {
        let b = mkblock(
            0x1000,
            3,
            Terminator::CondBranch {
                taken: 0x2000,
                not_taken: 0x1010,
            },
        );
        assert_eq!(b.end(), 0x1010);
        assert!(b.contains(0x1000));
        assert!(b.contains(0x100c));
        assert!(!b.contains(0x1010));
        assert!(!b.contains(0x1002)); // misaligned
        assert!(b.validate().is_ok());
    }

    #[test]
    fn inst_lookup() {
        let b = mkblock(0x40, 2, Terminator::FallThrough { next: 0x48 });
        assert_eq!(b.inst_at(0x44).unwrap().pc, 0x44);
        assert!(b.inst_at(0x48).is_none());
        assert!(b.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fallthrough() {
        let b = mkblock(0x40, 2, Terminator::FallThrough { next: 0x99 });
        assert!(b.validate().is_err());
    }

    #[test]
    fn validation_catches_mid_block_cti() {
        let mut b = mkblock(0x40, 2, Terminator::FallThrough { next: 0x48 });
        b.insts[0] = StaticInst::cti(0x40, OpClass::Jump, Some(0x80));
        assert!(b.validate().is_err());
    }

    #[test]
    fn successors() {
        let t = Terminator::CondBranch {
            taken: 0x2000,
            not_taken: 0x1010,
        };
        assert_eq!(t.static_successors(), vec![0x2000, 0x1010]);
        assert!(Terminator::Return.static_successors().is_empty());
    }
}
