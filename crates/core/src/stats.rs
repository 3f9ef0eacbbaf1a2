//! Front-end statistics: the raw counters behind Figures 7 and 8.

use prestage_json::{counters, Counter, Json};

/// Counters for one storage source, tracked both per fetched line and per
/// delivered instruction (the paper's Figure 7 plots per-fetch shares).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCount {
    pub lines: u64,
    pub insts: u64,
}

/// Encoded as the `[lines, insts]` pair.
impl Counter for SourceCount {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.lines.into(), self.insts.into()])
    }

    fn from_json(v: &Json, path: &str) -> Result<Self, String> {
        if let Some([lines, insts]) = v.as_arr() {
            if let (Some(lines), Some(insts)) = (lines.as_u64(), insts.as_u64()) {
                return Ok(SourceCount { lines, insts });
            }
        }
        Err(format!(
            "stats field {path:?} must be a [lines, insts] pair of unsigned integers"
        ))
    }
}

counters! {
    /// All front-end counters.
    pub struct FrontStats {
        // -- Fetch sources (Figure 7) --
        pub fetch_pb: SourceCount,
        pub fetch_l0: SourceCount,
        pub fetch_l1: SourceCount,
        pub fetch_l2: SourceCount,
        pub fetch_mem: SourceCount,

        // -- Prefetch sources (Figure 8): where the line was found when the
        //    prefetch request was processed --
        pub prefetch_from_pb: u64,
        pub prefetch_from_l1: u64,
        pub prefetch_from_l2: u64,
        pub prefetch_from_mem: u64,

        /// Prefetch requests issued to the memory system (L1 copies + L2/Mem).
        pub prefetches_issued: u64,
        /// FDP only: candidates dropped by Enqueue Cache Probe Filtering.
        pub filtered: u64,
        /// Prefetches that stalled waiting for a free pre-buffer entry
        /// (cycle counts).
        pub pb_alloc_stalls: u64,

        /// Fetch blocks accepted into the queue.
        pub blocks_pushed: u64,
        /// Queue-full rejections.
        pub blocks_rejected: u64,
        /// Front-end flushes (branch mispredictions reaching the front-end).
        pub flushes: u64,

        /// CLGP: consumers-counter increments (a queued line was already
        /// prestaged).
        pub consumer_bumps: u64,
    }
}

impl FrontStats {
    /// Total fetched lines across sources.
    pub fn total_fetch_lines(&self) -> u64 {
        self.fetch_pb.lines
            + self.fetch_l0.lines
            + self.fetch_l1.lines
            + self.fetch_l2.lines
            + self.fetch_mem.lines
    }

    /// Total delivered instructions across sources.
    pub fn total_fetch_insts(&self) -> u64 {
        self.fetch_pb.insts
            + self.fetch_l0.insts
            + self.fetch_l1.insts
            + self.fetch_l2.insts
            + self.fetch_mem.insts
    }

    /// Fraction of line fetches served by `count` (0 if none fetched).
    pub fn fetch_share(&self, count: SourceCount) -> f64 {
        let t = self.total_fetch_lines();
        if t == 0 {
            0.0
        } else {
            count.lines as f64 / t as f64
        }
    }

    /// Fraction of fetches served within one cycle (pre-buffer + L0):
    /// the paper's headline "95% of fetches from one-cycle sources".
    pub fn one_cycle_share(&self) -> f64 {
        self.fetch_share(self.fetch_pb) + self.fetch_share(self.fetch_l0)
    }

    /// Total prefetch requests processed (including those resolved in the
    /// pre-buffer or filtered).
    pub fn total_prefetch_requests(&self) -> u64 {
        self.prefetch_from_pb + self.prefetch_from_l1 + self.prefetch_from_l2
            + self.prefetch_from_mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let s = FrontStats {
            fetch_pb: SourceCount { lines: 60, insts: 240 },
            fetch_l0: SourceCount { lines: 20, insts: 80 },
            fetch_l1: SourceCount { lines: 15, insts: 60 },
            fetch_l2: SourceCount { lines: 4, insts: 16 },
            fetch_mem: SourceCount { lines: 1, insts: 4 },
            ..FrontStats::default()
        };
        let total = s.fetch_share(s.fetch_pb)
            + s.fetch_share(s.fetch_l0)
            + s.fetch_share(s.fetch_l1)
            + s.fetch_share(s.fetch_l2)
            + s.fetch_share(s.fetch_mem);
        assert!((total - 1.0).abs() < 1e-12);
        assert!((s.one_cycle_share() - 0.8).abs() < 1e-12);
        assert_eq!(s.total_fetch_insts(), 400);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = FrontStats::default();
        assert_eq!(s.total_fetch_lines(), 0);
        assert_eq!(s.fetch_share(s.fetch_pb), 0.0);
        assert_eq!(s.one_cycle_share(), 0.0);
    }
}
