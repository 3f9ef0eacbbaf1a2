//! Instruction streams: the fetch entity predicted by the front-end.

use prestage_isa::{Addr, BasicBlock, Program, INST_BYTES};

/// Maximum instructions in one stream / fetch block.  Streams longer than
/// this are split by the segmentation logic (a "sequential break"), bounding
/// FTQ entry payloads and predictor length fields.
pub const MAX_STREAM_INSTS: u32 = 64;

/// Why a stream ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum StreamEnd {
    /// Taken conditional branch or unconditional jump.
    #[default]
    Taken,
    /// Call: `next` is the callee; the link address goes on the RAS.
    Call,
    /// Return: `next` comes from the RAS.
    Return,
    /// No taken CTI within [`MAX_STREAM_INSTS`]: falls through sequentially.
    SequentialBreak,
}

/// A dynamic stream: `len` sequential instructions from `start`, continuing
/// at `next`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDesc {
    pub start: Addr,
    /// Number of instructions, `1..=MAX_STREAM_INSTS`.
    pub len: u32,
    /// Predicted/actual address of the next stream start.
    pub next: Addr,
    pub end: StreamEnd,
}

impl StreamDesc {
    /// PC one past the last instruction of the stream.
    pub fn end_pc(&self) -> Addr {
        self.start + self.len as u64 * INST_BYTES
    }

    /// Link address for a call-terminated stream.
    pub fn link(&self) -> Addr {
        debug_assert_eq!(self.end, StreamEnd::Call);
        self.end_pc()
    }

    /// Two descriptors agree as *fetch directives* (same instructions, same
    /// continuation).
    pub fn same_flow(&self, other: &StreamDesc) -> bool {
        self.start == other.start && self.len == other.len && self.next == other.next
    }
}

/// A prediction emitted by a [`FetchBlockPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPrediction {
    pub stream: StreamDesc,
    /// True when a predictor table supplied the stream (as opposed to the
    /// static fall-back walk).
    pub table_hit: bool,
    /// True when the history-indexed second-level table supplied it.
    pub from_l2: bool,
}

/// Common interface of fetch-block predictors: the cascaded stream predictor
/// and the gshare-over-dictionary baseline.
pub trait FetchBlockPredictor {
    /// Opaque speculative-state checkpoint (history + RAS).
    type Checkpoint: Clone;

    /// Predict the stream starting at `start`, updating speculative state
    /// (path history, RAS pushes/pops).  `prog` is the basic-block
    /// dictionary, available for static fall-back walks — the same
    /// structure the paper's simulator uses for speculative lookups.
    fn predict(&mut self, start: Addr, prog: &Program) -> StreamPrediction;

    /// Train with a resolved actual stream.
    fn train(&mut self, actual: &StreamDesc);

    /// Capture speculative state before a prediction.
    fn checkpoint(&self) -> Self::Checkpoint;

    /// Restore speculative state (branch misprediction recovery).
    fn restore(&mut self, cp: &Self::Checkpoint);
}

/// Walk the basic-block dictionary from `start` assuming every conditional
/// branch falls through, until the first unconditional transfer or the
/// length cap: the static fall-back prediction used on table misses.
///
/// Returns `None` if `start` is not a mapped instruction.
///
/// The walk resolves a basic block once and indexes into it, searching the
/// dictionary again only when the PC runs past the block's end.
pub fn static_fallback_walk(start: Addr, prog: &Program) -> Option<StreamDesc> {
    use prestage_isa::OpClass;
    let mut pc = start;
    let mut len = 0u32;
    let mut block: Option<&BasicBlock> = None;
    while len < MAX_STREAM_INSTS {
        if block.is_none_or(|b| pc >= b.end()) {
            block = prog.block_at(pc);
        }
        let inst = match block.and_then(|b| b.inst_at(pc)) {
            Some(i) => i,
            None => {
                // Ran off the image mid-walk: close the stream here.
                if len == 0 {
                    return None;
                }
                return Some(StreamDesc {
                    start,
                    len,
                    next: pc,
                    end: StreamEnd::SequentialBreak,
                });
            }
        };
        len += 1;
        match inst.op {
            OpClass::Jump => {
                return Some(StreamDesc {
                    start,
                    len,
                    next: inst.target.expect("jump target"),
                    end: StreamEnd::Taken,
                })
            }
            OpClass::Call => {
                return Some(StreamDesc {
                    start,
                    len,
                    next: inst.target.expect("call target"),
                    end: StreamEnd::Call,
                })
            }
            OpClass::Return => {
                return Some(StreamDesc {
                    start,
                    len,
                    next: 0, // filled from the RAS by the caller
                    end: StreamEnd::Return,
                })
            }
            // Conditional branches predicted not-taken in the fall-back.
            _ => pc += INST_BYTES,
        }
    }
    Some(StreamDesc {
        start,
        len,
        next: pc,
        end: StreamEnd::SequentialBreak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestage_isa::{straightline_block, ProgramBuilder, Terminator};

    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        // 0x1000: 4 ALU + cond branch (taken -> 0x2000)
        pb.push(straightline_block(
            0x1000,
            4,
            Terminator::CondBranch {
                taken: 0x2000,
                not_taken: 0x1014,
            },
        ));
        // 0x1014: 2 ALU + jump -> 0x2000
        pb.push(straightline_block(0x1014, 2, Terminator::Jump { target: 0x2000 }));
        // 0x2000: 3 ALU + call -> 0x3000
        pb.push(straightline_block(
            0x2000,
            3,
            Terminator::Call {
                target: 0x3000,
                link: 0x2010,
            },
        ));
        // 0x2010: 1 ALU + return
        pb.push(straightline_block(0x2010, 1, Terminator::Return));
        // 0x3000: return
        pb.push(straightline_block(0x3000, 0, Terminator::Return));
        pb.finish().unwrap()
    }

    #[test]
    fn stream_geometry() {
        let s = StreamDesc {
            start: 0x1000,
            len: 5,
            next: 0x2000,
            end: StreamEnd::Taken,
        };
        assert_eq!(s.end_pc(), 0x1014);
        assert!(s.same_flow(&s));
    }

    #[test]
    fn fallback_walks_through_not_taken_branches() {
        let p = program();
        // From 0x1000: cond branch assumed not-taken, continues through
        // 0x1014 block, ends at the jump.
        let s = static_fallback_walk(0x1000, &p).unwrap();
        assert_eq!(s.start, 0x1000);
        assert_eq!(s.len, 8); // 4 ALU + branch + 2 ALU + jump
        assert_eq!(s.next, 0x2000);
        assert_eq!(s.end, StreamEnd::Taken);
    }

    #[test]
    fn fallback_stops_at_call_and_return() {
        let p = program();
        let s = static_fallback_walk(0x2000, &p).unwrap();
        assert_eq!(s.end, StreamEnd::Call);
        assert_eq!(s.next, 0x3000);
        assert_eq!(s.len, 4);

        let r = static_fallback_walk(0x3000, &p).unwrap();
        assert_eq!(r.end, StreamEnd::Return);
        assert_eq!(r.len, 1);
    }

    #[test]
    fn fallback_unmapped_start_is_none() {
        let p = program();
        assert!(static_fallback_walk(0x9999_0000, &p).is_none());
    }

    /// The walk as first written: one dictionary search per instruction.
    fn per_inst_walk(start: Addr, prog: &Program) -> Option<StreamDesc> {
        use prestage_isa::OpClass;
        let mut pc = start;
        let mut len = 0u32;
        while len < MAX_STREAM_INSTS {
            let Some(inst) = prog.inst_at(pc) else {
                return (len > 0).then_some(StreamDesc {
                    start,
                    len,
                    next: pc,
                    end: StreamEnd::SequentialBreak,
                });
            };
            len += 1;
            let end = match inst.op {
                OpClass::Jump => StreamEnd::Taken,
                OpClass::Call => StreamEnd::Call,
                OpClass::Return => StreamEnd::Return,
                _ => {
                    pc += INST_BYTES;
                    continue;
                }
            };
            let next = if end == StreamEnd::Return { 0 } else { inst.target.unwrap() };
            return Some(StreamDesc { start, len, next, end });
        }
        Some(StreamDesc {
            start,
            len,
            next: pc,
            end: StreamEnd::SequentialBreak,
        })
    }

    #[test]
    fn block_indexed_walk_matches_per_instruction_walk() {
        // The test program plus a long fall-through chain that crosses
        // several blocks, hits the length cap, and runs off the image.
        let mut pb = ProgramBuilder::new();
        for blk in program().blocks() {
            pb.push(blk.clone());
        }
        for k in 0..14u64 {
            let start = 0x8000 + k * 20;
            let next = start + 20;
            pb.push(if k % 2 == 0 {
                straightline_block(start, 5, Terminator::FallThrough { next })
            } else {
                straightline_block(
                    start,
                    4,
                    Terminator::CondBranch {
                        taken: 0x1000,
                        not_taken: next,
                    },
                )
            });
        }
        pb.push(straightline_block(0x8000 + 14 * 20, 3, Terminator::Return));
        let p = pb.finish().unwrap();
        for pc in (0x0ff0..0x3020).chain(0x7ff0..0x8140) {
            assert_eq!(
                static_fallback_walk(pc, &p),
                per_inst_walk(pc, &p),
                "walk from {pc:#x}"
            );
        }
    }

    #[test]
    fn fallback_mid_block_start_works() {
        let p = program();
        // Starting in the middle of the 0x1000 block (e.g. branch target).
        let s = static_fallback_walk(0x1008, &p).unwrap();
        assert_eq!(s.start, 0x1008);
        assert_eq!(s.len, 6);
        assert_eq!(s.next, 0x2000);
    }
}
