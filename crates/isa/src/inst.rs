//! Static instruction model: operation classes, registers, and the
//! per-instruction record stored in the basic-block dictionary.

use crate::addr::Addr;

/// Total architectural registers: 32 integer + 32 floating point.
pub const NUM_REGS: usize = 64;
/// First floating-point register index.
pub const FIRST_FP_REG: u8 = 32;
/// The hard-wired zero register (Alpha `r31`): never creates a dependency.
pub const REG_ZERO: Reg = Reg(31);

/// An architectural register.  `0..32` integer, `32..64` floating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Integer register `i`.
    pub fn int(i: u8) -> Reg {
        assert!(i < FIRST_FP_REG);
        Reg(i)
    }

    /// Floating-point register `i`.
    pub fn fp(i: u8) -> Reg {
        assert!(i < 32);
        Reg(FIRST_FP_REG + i)
    }

    /// True for the hard-wired zero register, which never carries a
    /// dependency.
    pub fn is_zero(self) -> bool {
        self == REG_ZERO
    }

    /// Index into a 64-entry scoreboard.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Operation class of a static instruction.
///
/// The back-end only needs classes (for latency and port binding), not full
/// opcodes — the same granularity the paper's trace simulator keeps in its
/// basic-block dictionary ("type, source/target registers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Integer multiply (long latency).
    IntMul,
    /// Floating-point add/sub/convert.
    FpAlu,
    /// Floating-point multiply/divide.
    FpMul,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    CondBranch,
    /// Unconditional direct jump.
    Jump,
    /// Direct call (pushes a return address).
    Call,
    /// Return (pops a return address).
    Return,
}

impl OpClass {
    /// Execution latency in cycles once issued (loads add cache time).
    pub fn exec_latency(self) -> u32 {
        match self {
            OpClass::IntAlu | OpClass::CondBranch | OpClass::Jump | OpClass::Call
            | OpClass::Return | OpClass::Store => 1,
            OpClass::IntMul => 7,
            OpClass::FpAlu => 4,
            OpClass::FpMul => 6,
            OpClass::Load => 1, // plus memory time
        }
    }

    /// Any control-transfer instruction.
    pub fn is_cti(self) -> bool {
        matches!(
            self,
            OpClass::CondBranch | OpClass::Jump | OpClass::Call | OpClass::Return
        )
    }

    /// Conditional branch (the only class the direction predictor guesses).
    pub fn is_cond_branch(self) -> bool {
        matches!(self, OpClass::CondBranch)
    }

    /// Touches data memory.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// One static instruction in the basic-block dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticInst {
    /// Program counter of this instruction.
    pub pc: Addr,
    /// Operation class.
    pub op: OpClass,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// First source register, if any.
    pub src1: Option<Reg>,
    /// Second source register, if any.
    pub src2: Option<Reg>,
    /// Direct control-flow target (branch taken target / jump / call target).
    pub target: Option<Addr>,
}

impl StaticInst {
    /// A plain non-CTI instruction.
    pub fn plain(
        pc: Addr,
        op: OpClass,
        dst: Option<Reg>,
        src1: Option<Reg>,
        src2: Option<Reg>,
    ) -> Self {
        assert!(!op.is_cti(), "use StaticInst::cti for control transfers");
        StaticInst {
            pc,
            op,
            dst,
            src1,
            src2,
            target: None,
        }
    }

    /// A control-transfer instruction.  `target` is `None` only for
    /// [`OpClass::Return`] (indirect through the return address stack).
    pub fn cti(pc: Addr, op: OpClass, target: Option<Addr>) -> Self {
        assert!(op.is_cti());
        assert!(
            target.is_some() || op == OpClass::Return,
            "direct CTIs need a target"
        );
        StaticInst {
            pc,
            op,
            dst: None,
            src1: None,
            src2: None,
            target,
        }
    }

    /// The fall-through PC.
    #[inline]
    pub fn next_pc(&self) -> Addr {
        self.pc + crate::addr::INST_BYTES
    }

    /// Sources that actually create dependencies (zero register excluded).
    pub fn dep_sources(&self) -> impl Iterator<Item = Reg> + '_ {
        [self.src1, self.src2]
            .into_iter()
            .flatten()
            .filter(|r| !r.is_zero())
    }

    /// Destination that actually produces a value (zero register excluded).
    pub fn dep_dest(&self) -> Option<Reg> {
        self.dst.filter(|r| !r.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_ordered() {
        assert!(OpClass::IntMul.exec_latency() > OpClass::IntAlu.exec_latency());
        assert!(OpClass::FpMul.exec_latency() > OpClass::FpAlu.exec_latency());
    }

    #[test]
    fn cti_classification() {
        assert!(OpClass::CondBranch.is_cti());
        assert!(OpClass::Return.is_cti());
        assert!(!OpClass::Load.is_cti());
        assert!(OpClass::CondBranch.is_cond_branch());
        assert!(!OpClass::Jump.is_cond_branch());
    }

    #[test]
    fn zero_register_breaks_dependencies() {
        let i = StaticInst::plain(
            0x100,
            OpClass::IntAlu,
            Some(REG_ZERO),
            Some(Reg::int(3)),
            Some(REG_ZERO),
        );
        assert_eq!(i.dep_dest(), None);
        let srcs: Vec<_> = i.dep_sources().collect();
        assert_eq!(srcs, vec![Reg::int(3)]);
    }

    #[test]
    fn fp_registers_distinct_from_int() {
        assert_ne!(Reg::int(5), Reg::fp(5));
        assert_eq!(Reg::fp(0).index(), 32);
    }

    #[test]
    #[should_panic]
    fn plain_rejects_cti() {
        StaticInst::plain(0, OpClass::Jump, None, None, None);
    }

    #[test]
    #[should_panic]
    fn direct_cti_requires_target() {
        StaticInst::cti(0, OpClass::Call, None);
    }
}
