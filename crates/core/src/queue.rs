//! The decoupling queue: FTQ (fetch blocks) or CLTQ (fetch cache lines).
//!
//! §4 of the paper: *"The queue that decouples prediction and fetch stages
//! (FTQ in Fetch Directed Prefetching; CLTQ in Cache Line Guided
//! Prestaging) can hold up to 8 fetch blocks. ... Although CLTQ has more
//! entries than FTQ, both queues have the same fetch blocks stored in them,
//! i.e. both techniques have the same opportunities to initiate new
//! prefetches."*
//!
//! Both queues are therefore capacity-bounded in *fetch blocks*; the
//! difference is granularity of bookkeeping.  This implementation
//! materialises the per-line slots for both (each slot carries the CLTQ's
//! `prefetched` bit; the `occupied` bit is implicit in slot liveness), so
//! one structure serves FDP, CLGP and the no-prefetch baseline.

use prestage_isa::{align_line, Addr, INST_BYTES};
use std::collections::VecDeque;

/// Presentation/bookkeeping granularity of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Fetch target queue: one logical entry per fetch block (FDP).
    Ftq,
    /// Cache line target queue: one entry per fetch cache line (CLGP).
    Cltq,
}

/// One fetch cache line awaiting fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSlot {
    /// Sequence number of the owning fetch block.
    pub block_seq: u64,
    /// 64-byte-aligned line address.
    pub line: Addr,
    /// PC of the first instruction to fetch from this line.
    pub first_pc: Addr,
    /// Instructions to deliver from this line.
    pub n_insts: u32,
    /// CLTQ 'prefetched bit': the prefetcher has processed this slot.
    pub prefetched: bool,
    /// Last line of its fetch block.
    pub last_of_block: bool,
}

/// The decoupling queue.
///
/// Hot-path layout: one flat ring of line slots plus a block counter.
/// Block boundaries are recovered from each slot's `last_of_block` flag
/// (a block's lines are always pushed contiguously and completely), so
/// the per-block nesting the first implementation used — a `VecDeque` of
/// `VecDeque`s, one heap allocation per predicted block — is gone from
/// the per-cycle path.
#[derive(Debug, Clone)]
pub struct FetchQueue {
    kind: QueueKind,
    line_bytes: u64,
    max_blocks: usize,
    lines: VecDeque<LineSlot>,
    n_blocks: usize,
    /// Index of the first slot the prefetcher may not have processed:
    /// everything below it is `prefetched`.  Sound because the flag is
    /// set-only and slots leave from the front, so the scan in
    /// [`first_unprefetched`](Self::first_unprefetched) never needs to
    /// revisit the processed prefix.
    pf_cursor: usize,
}

impl FetchQueue {
    pub fn new(kind: QueueKind, line_bytes: u64, max_blocks: usize) -> Self {
        assert!(line_bytes.is_power_of_two() && max_blocks >= 1);
        FetchQueue {
            kind,
            line_bytes,
            max_blocks,
            // A fetch block spans at most fetch-width/line + 1 lines; 8 is
            // ample for the paper's 4-wide blocks, and the ring grows once
            // and stays if a configuration exceeds it.
            lines: VecDeque::with_capacity(max_blocks * 8),
            n_blocks: 0,
            pf_cursor: 0,
        }
    }

    pub fn kind(&self) -> QueueKind {
        self.kind
    }

    /// True if another fetch block can be accepted.
    pub fn has_space(&self) -> bool {
        self.n_blocks < self.max_blocks
    }

    /// Number of queued fetch blocks.
    pub fn len_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Number of queued line slots.
    pub fn len_lines(&self) -> usize {
        self.lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.n_blocks == 0
    }

    /// Enqueue a predicted fetch block of `len` instructions starting at
    /// `start`.  Returns false (and accepts nothing) when full.
    pub fn push_block(&mut self, seq: u64, start: Addr, len: u32) -> bool {
        if !self.has_space() || len == 0 {
            return false;
        }
        let end = start + len as u64 * INST_BYTES;
        let mut pc = start;
        while pc < end {
            let line = align_line(pc, self.line_bytes);
            let line_end = line + self.line_bytes;
            let last_pc = end.min(line_end);
            let span = (last_pc - pc) / INST_BYTES;
            // Bounded by both `len: u32` and the line size, but say so
            // instead of truncating (PR 5's `as u16` clamp hid exactly
            // this kind of silent wrap).
            let Ok(n) = u32::try_from(span) else {
                unreachable!(
                    "fetch-block line span {span} instructions overflows u32 \
                     (pc {pc:#x}, line end {last_pc:#x})"
                )
            };
            self.lines.push_back(LineSlot {
                block_seq: seq,
                line,
                first_pc: pc,
                n_insts: n,
                prefetched: false,
                last_of_block: last_pc == end,
            });
            pc = line_end;
        }
        self.n_blocks += 1;
        true
    }

    /// The next line the fetch unit should fetch (the queue head).
    pub fn head_line(&self) -> Option<&LineSlot> {
        self.lines.front()
    }

    /// Pop the head line after the fetch unit has accepted it.
    pub fn pop_head_line(&mut self) -> Option<LineSlot> {
        let slot = self.lines.pop_front()?;
        if slot.last_of_block {
            self.n_blocks -= 1;
        }
        self.pf_cursor = self.pf_cursor.saturating_sub(1);
        Some(slot)
    }

    /// The first slot not yet processed by the prefetcher.  Returns a
    /// mutable reference so the caller can set `prefetched`; the cursor
    /// makes this O(new slots), not a fresh front-to-back scan.
    pub fn first_unprefetched(&mut self) -> Option<&mut LineSlot> {
        while self
            .lines
            .get(self.pf_cursor)
            .is_some_and(|s| s.prefetched)
        {
            self.pf_cursor += 1;
        }
        self.lines.get_mut(self.pf_cursor)
    }

    /// [`first_unprefetched`](Self::first_unprefetched) without advancing
    /// the cursor: what the prefetcher's next scan would start from.
    pub fn peek_unprefetched(&self) -> Option<&LineSlot> {
        self.lines.range(self.pf_cursor..).find(|s| !s.prefetched)
    }

    /// Iterate all queued slots front to back.
    pub fn iter_lines(&self) -> impl Iterator<Item = &LineSlot> {
        self.lines.iter()
    }

    /// Drop everything (branch misprediction).
    pub fn flush(&mut self) {
        self.lines.clear();
        self.n_blocks = 0;
        self.pf_cursor = 0;
    }

    /// Sequence number of the newest queued block.
    pub fn newest_seq(&self) -> Option<u64> {
        self.lines.back().map(|s| s.block_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> FetchQueue {
        FetchQueue::new(QueueKind::Cltq, 64, 8)
    }

    #[test]
    fn splits_blocks_into_lines() {
        let mut q = q();
        // 20 insts from 0x1030: bytes [0x1030, 0x1080): lines 0x1000, 0x1040.
        assert!(q.push_block(1, 0x1030, 20));
        assert_eq!(q.len_blocks(), 1);
        assert_eq!(q.len_lines(), 2);
        let slots: Vec<_> = q.iter_lines().cloned().collect();
        assert_eq!(slots[0].line, 0x1000);
        assert_eq!(slots[0].first_pc, 0x1030);
        assert_eq!(slots[0].n_insts, 4);
        assert!(!slots[0].last_of_block);
        assert_eq!(slots[1].line, 0x1040);
        assert_eq!(slots[1].first_pc, 0x1040);
        assert_eq!(slots[1].n_insts, 16);
        assert!(slots[1].last_of_block);
    }

    #[test]
    fn capacity_counts_blocks_not_lines() {
        let mut q = q();
        for i in 0..8 {
            // Each block spans 3 lines.
            assert!(q.push_block(i, 0x2000 + i * 0x100, 48));
        }
        assert!(!q.has_space());
        assert!(!q.push_block(99, 0x9000, 4));
        assert_eq!(q.len_blocks(), 8);
        assert_eq!(q.len_lines(), 24);
    }

    #[test]
    fn fetch_consumes_in_order() {
        let mut q = q();
        q.push_block(1, 0x1000, 20); // 2 lines
        q.push_block(2, 0x3000, 4); // 1 line
        assert_eq!(q.head_line().unwrap().line, 0x1000);
        let a = q.pop_head_line().unwrap();
        assert_eq!(a.block_seq, 1);
        let b = q.pop_head_line().unwrap();
        assert_eq!(b.line, 0x1040);
        assert!(b.last_of_block);
        let c = q.pop_head_line().unwrap();
        assert_eq!(c.block_seq, 2);
        assert!(q.is_empty());
        assert!(q.pop_head_line().is_none());
    }

    #[test]
    fn popping_block_frees_capacity() {
        let mut q = FetchQueue::new(QueueKind::Ftq, 64, 1);
        assert!(q.push_block(1, 0x1000, 4));
        assert!(!q.push_block(2, 0x2000, 4));
        q.pop_head_line();
        assert!(q.has_space());
        assert!(q.push_block(2, 0x2000, 4));
    }

    #[test]
    fn prefetch_scan_skips_processed() {
        let mut q = q();
        q.push_block(1, 0x1000, 32); // 2 lines
        {
            let s = q.first_unprefetched().unwrap();
            assert_eq!(s.line, 0x1000);
            s.prefetched = true;
        }
        assert_eq!(q.peek_unprefetched().map(|s| s.line), Some(0x1040));
        let s = q.first_unprefetched().unwrap();
        assert_eq!(s.line, 0x1040);
        s.prefetched = true;
        assert!(q.first_unprefetched().is_none());
        assert!(q.peek_unprefetched().is_none());
    }

    #[test]
    fn flush_empties_everything() {
        let mut q = q();
        q.push_block(1, 0x1000, 64);
        q.flush();
        assert!(q.is_empty());
        assert_eq!(q.len_lines(), 0);
        assert!(q.head_line().is_none());
    }

    #[test]
    fn single_line_block() {
        let mut q = q();
        q.push_block(7, 0x1004, 3); // [0x1004, 0x1010): one line
        assert_eq!(q.len_lines(), 1);
        let s = q.head_line().unwrap();
        assert_eq!(s.n_insts, 3);
        assert!(s.last_of_block);
    }

    #[test]
    fn max_length_block_line_count() {
        let mut q = q();
        // 64 insts = 256 bytes from a line boundary = exactly 4 lines.
        q.push_block(1, 0x4000, 64);
        assert_eq!(q.len_lines(), 4);
        // Misaligned start adds one line.
        q.push_block(2, 0x5004, 64);
        assert_eq!(q.len_lines(), 4 + 5);
    }

    #[test]
    fn per_line_counts_survive_high_addresses_and_sum_to_len() {
        // Regression for the narrowing in `push_block`: per-line counts
        // are now range-checked, and must partition the block exactly
        // even when the PC sits in the top of the address space.
        let mut q = FetchQueue::new(QueueKind::Cltq, 64, 8);
        let start = 0xFFFF_FFFF_FFFF_F004; // line-misaligned, near the top
        let len = 48u32;
        assert!(q.push_block(7, start, len));
        let slots: Vec<_> = q.iter_lines().cloned().collect();
        assert_eq!(slots.iter().map(|s| s.n_insts).sum::<u32>(), len);
        assert!(slots.iter().all(|s| s.n_insts >= 1 && s.n_insts <= 16));
        assert_eq!(slots.first().map(|s| s.first_pc), Some(start));
        assert!(slots.last().is_some_and(|s| s.last_of_block));
    }
}
