//! The cascaded stream predictor: a 1K-entry PC-indexed first level plus a
//! 6K-entry path-history-indexed second level (Table 2: "1K+6K-entry stream
//! pred., 1 cycle lat."), with an 8-entry RAS.
//!
//! Prediction returns a whole [`StreamDesc`] — start, length, and the next
//! stream's start — which the front-end turns into one FTQ entry (FDP) or a
//! run of CLTQ cache-line entries (CLGP).  Speculative path history and RAS
//! state advance at predict time and are checkpointed/restored around
//! mispredictions, mirroring the paper's "speculative lookups and updates of
//! the branch predictor".

use crate::ras::{RasSnapshot, ReturnAddressStack};
use crate::stream::{
    static_fallback_walk, FetchBlockPredictor, StreamDesc, StreamEnd, StreamPrediction,
};
use prestage_isa::{Addr, Program, INST_BYTES};
use prestage_json::counters;

/// Configuration of the cascaded stream predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPredictorConfig {
    /// First-level (PC-indexed) entries.  Paper: 1024.
    pub l1_entries: usize,
    /// Second-level (history-indexed) entries.  Paper: 6144.
    pub l2_entries: usize,
    /// RAS entries.  Paper: 8.
    pub ras_entries: usize,
    /// Hysteresis ceiling (2-bit counters → 3).
    pub conf_max: u8,
}

impl Default for StreamPredictorConfig {
    fn default() -> Self {
        StreamPredictorConfig {
            l1_entries: 1024,
            l2_entries: 6144,
            ras_entries: 8,
            conf_max: 3,
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry {
    valid: bool,
    tag: u32,
    /// Stream length in instructions, stored at full width: a narrower
    /// field silently clamped long streams (> 65535 instructions) and
    /// trained the predictor on a corrupted length.  Normal operation
    /// never exceeds `MAX_STREAM_INSTS`, but the table must be faithful
    /// to whatever [`StreamDesc`] it is trained with.
    len: u32,
    next: Addr,
    end: StreamEnd,
    conf: u8,
}

impl Entry {
    fn to_stream(self, start: Addr) -> StreamDesc {
        StreamDesc {
            start,
            len: self.len,
            next: self.next,
            end: self.end,
        }
    }

    fn matches(&self, actual: &StreamDesc) -> bool {
        self.valid
            && self.len == actual.len
            && self.end == actual.end
            && (self.end == StreamEnd::Return || self.next == actual.next)
    }
}

/// Context captured at predict time, needed to train the right entries with
/// the history that was live when the prediction was made.
#[derive(Debug, Clone, Copy)]
pub struct TrainToken {
    l1_idx: usize,
    l1_tag: u32,
    l2_idx: usize,
    l2_tag: u32,
}

counters! {
    /// Prediction accuracy and table-usage counters.
    pub struct PredStats {
        pub predictions: u64,
        pub l1_supplied: u64,
        pub l2_supplied: u64,
        pub fallback_supplied: u64,
        pub trained: u64,
        pub train_correct: u64,
    }
}

impl PredStats {
    /// Fraction of trained predictions that were correct.
    pub fn accuracy(&self) -> f64 {
        if self.trained == 0 {
            return 0.0;
        }
        self.train_correct as f64 / self.trained as f64
    }
}

/// Checkpoint of all speculative predictor state.
#[derive(Debug, Clone)]
pub struct PredCheckpoint {
    history: u64,
    ras: RasSnapshot,
}

/// The cascaded stream predictor.
#[derive(Debug, Clone)]
pub struct StreamPredictor {
    cfg: StreamPredictorConfig,
    l1: Vec<Entry>,
    l2: Vec<Entry>,
    ras: ReturnAddressStack,
    /// Speculative path history: folded stream-start addresses.
    history: u64,
    stats: PredStats,
}

fn fold_tag(x: u64) -> u32 {
    // prestage: allow(truncating-cast, hash fold: collapsing 64 address bits into a 32-bit tag is the point; collisions only alias predictor entries, never corrupt results)
    ((x >> 2) ^ (x >> 17) ^ (x >> 33)) as u32 | 1
}

impl StreamPredictor {
    pub fn new(cfg: StreamPredictorConfig) -> Self {
        // The first level is indexed with `& (l1_entries - 1)` while the
        // second level uses `%`: a non-power-of-two first level would
        // silently alias entries and the two tables would disagree about
        // which streams they cover.  Reject it at construction, by name.
        assert!(
            cfg.l1_entries.is_power_of_two(),
            "StreamPredictorConfig.l1_entries must be a power of two \
             (the PC-indexed level is mask-indexed), got {}",
            cfg.l1_entries
        );
        StreamPredictor {
            l1: vec![Entry::default(); cfg.l1_entries],
            l2: vec![Entry::default(); cfg.l2_entries],
            ras: ReturnAddressStack::new(cfg.ras_entries),
            history: 0,
            stats: PredStats::default(),
            cfg,
        }
    }

    /// Paper configuration (1K + 6K entries, 8-entry RAS).
    pub fn paper_default() -> Self {
        Self::new(StreamPredictorConfig::default())
    }

    fn l1_index(&self, start: Addr) -> (usize, u32) {
        let idx = ((start >> 2) as usize) & (self.cfg.l1_entries - 1);
        (idx, fold_tag(start))
    }

    fn l2_index(&self, start: Addr, history: u64) -> (usize, u32) {
        let h = history ^ (start >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let idx = (h % self.cfg.l2_entries as u64) as usize;
        (idx, fold_tag(start ^ history.rotate_left(13)))
    }

    fn push_history(&mut self, next_start: Addr) {
        self.history = self.history.rotate_left(7) ^ (next_start >> 2);
    }

    /// Apply RAS side effects of following `stream`, resolving Return
    /// targets.  Returns the (possibly RAS-substituted) next address.
    fn apply_ras(&mut self, stream: &mut StreamDesc) {
        match stream.end {
            StreamEnd::Call => self.ras.push(stream.end_pc()),
            StreamEnd::Return => stream.next = self.ras.pop(),
            _ => {}
        }
    }

    pub fn stats(&self) -> &PredStats {
        &self.stats
    }

    /// Zero the accuracy counters (end of warm-up); tables are kept.
    pub fn reset_stats(&mut self) {
        self.stats = PredStats::default();
    }

    /// Update one table entry towards `actual` with hysteresis.
    fn train_entry(entry: &mut Entry, tag: u32, actual: &StreamDesc, conf_max: u8) {
        let same = entry.valid && entry.tag == tag && entry.matches(actual);
        if same {
            entry.conf = (entry.conf + 1).min(conf_max);
            return;
        }
        if entry.valid && entry.conf > 0 {
            entry.conf -= 1;
            return;
        }
        *entry = Entry {
            valid: true,
            tag,
            len: actual.len,
            next: actual.next,
            end: actual.end,
            conf: 1,
        };
    }
}

impl FetchBlockPredictor for StreamPredictor {
    type Checkpoint = PredCheckpoint;

    fn predict(&mut self, start: Addr, prog: &Program) -> StreamPrediction {
        let (i1, t1) = self.l1_index(start);
        let (i2, t2) = self.l2_index(start, self.history);
        self.predict_at(i1, t1, i2, t2, start, prog)
    }

    fn train(&mut self, actual: &StreamDesc) {
        // Trait-level train without a token: PC-indexed level only.  The
        // engine uses `train_with_token` for full cascade training; this
        // entry point exists for warm-up passes.
        let (i1, t1) = self.l1_index(actual.start);
        let conf_max = self.cfg.conf_max;
        Self::train_entry(&mut self.l1[i1], t1, actual, conf_max);
    }

    fn checkpoint(&self) -> PredCheckpoint {
        PredCheckpoint {
            history: self.history,
            ras: self.ras.snapshot(),
        }
    }

    fn restore(&mut self, cp: &PredCheckpoint) {
        self.history = cp.history;
        self.ras.restore(&cp.ras);
    }
}

impl StreamPredictor {
    /// Shared prediction body over precomputed table indices/tags.
    fn predict_at(
        &mut self,
        i1: usize,
        t1: u32,
        i2: usize,
        t2: u32,
        start: Addr,
        prog: &Program,
    ) -> StreamPrediction {
        self.stats.predictions += 1;
        let l2e = self.l2[i2];
        let l1e = self.l1[i1];
        let (mut stream, table_hit, from_l2) = if l2e.valid && l2e.tag == t2 {
            self.stats.l2_supplied += 1;
            (l2e.to_stream(start), true, true)
        } else if l1e.valid && l1e.tag == t1 {
            self.stats.l1_supplied += 1;
            (l1e.to_stream(start), true, false)
        } else {
            self.stats.fallback_supplied += 1;
            let fb = static_fallback_walk(start, prog).unwrap_or(StreamDesc {
                start,
                len: 1,
                next: start + INST_BYTES,
                end: StreamEnd::SequentialBreak,
            });
            (fb, false, false)
        };
        self.apply_ras(&mut stream);
        self.push_history(stream.next);
        StreamPrediction {
            stream,
            table_hit,
            from_l2,
        }
    }

    /// [`FetchBlockPredictor::predict`] reusing the table indices already
    /// computed for `tok` — which must have been captured by
    /// [`token`](Self::token) at this `start` with the current speculative
    /// history.  The on-path flow always takes a token for training, so
    /// this skips recomputing both index/tag pairs (the history-indexed
    /// level costs a 64-bit modulo per computation).
    pub fn predict_with_token(
        &mut self,
        tok: &TrainToken,
        start: Addr,
        prog: &Program,
    ) -> StreamPrediction {
        debug_assert_eq!((tok.l1_idx, tok.l1_tag), self.l1_index(start));
        debug_assert_eq!((tok.l2_idx, tok.l2_tag), self.l2_index(start, self.history));
        self.predict_at(tok.l1_idx, tok.l1_tag, tok.l2_idx, tok.l2_tag, start, prog)
    }

    /// Capture the training context for a prediction made at `start` with
    /// the *current* speculative history (call before `predict`).
    pub fn token(&self, start: Addr) -> TrainToken {
        let (l1_idx, l1_tag) = self.l1_index(start);
        let (l2_idx, l2_tag) = self.l2_index(start, self.history);
        TrainToken {
            l1_idx,
            l1_tag,
            l2_idx,
            l2_tag,
        }
    }

    /// Cascaded training: always train L1; train the history-indexed L2
    /// when the L1 entry alone would have mispredicted (classic cascade
    /// allocation policy).  `was_correct` is whether the *emitted*
    /// prediction matched the actual stream (for accuracy stats).
    pub fn train_with_token(&mut self, tok: &TrainToken, actual: &StreamDesc, was_correct: bool) {
        self.stats.trained += 1;
        if was_correct {
            self.stats.train_correct += 1;
        }
        let conf_max = self.cfg.conf_max;
        let l1_was_right = {
            let e = &self.l1[tok.l1_idx];
            e.valid && e.tag == tok.l1_tag && e.matches(actual)
        };
        Self::train_entry(&mut self.l1[tok.l1_idx], tok.l1_tag, actual, conf_max);
        if !l1_was_right {
            Self::train_entry(&mut self.l2[tok.l2_idx], tok.l2_tag, actual, conf_max);
        } else {
            // Keep a correct L2 entry fresh if it exists.
            let e = &mut self.l2[tok.l2_idx];
            if e.valid && e.tag == tok.l2_tag && e.matches(actual) {
                e.conf = (e.conf + 1).min(conf_max);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestage_isa::{straightline_block, ProgramBuilder, Terminator};

    fn loop_program() -> Program {
        // One block: 7 ALU + cond branch back to itself.
        let mut pb = ProgramBuilder::new();
        pb.push(straightline_block(
            0x1000,
            7,
            Terminator::CondBranch {
                taken: 0x1000,
                not_taken: 0x1020,
            },
        ));
        pb.push(straightline_block(0x1020, 2, Terminator::Return));
        pb.finish().unwrap()
    }

    fn taken_stream() -> StreamDesc {
        StreamDesc {
            start: 0x1000,
            len: 8,
            next: 0x1000,
            end: StreamEnd::Taken,
        }
    }

    #[test]
    fn fallback_then_learned() {
        let prog = loop_program();
        let mut p = StreamPredictor::paper_default();
        // Cold: fallback predicts not-taken => stream runs to the Return.
        let pred = p.predict(0x1000, &prog);
        assert!(!pred.table_hit);
        assert_eq!(pred.stream.end, StreamEnd::Return);

        // Train the taken back-edge twice; now the table supplies it.
        let tok = p.token(0x1000);
        p.train_with_token(&tok, &taken_stream(), false);
        let pred2 = p.predict(0x1000, &prog);
        assert!(pred2.table_hit);
        assert!(pred2.stream.same_flow(&taken_stream()));
    }

    #[test]
    fn hysteresis_resists_one_off_noise() {
        let prog = loop_program();
        let mut p = StreamPredictor::paper_default();
        let tok = p.token(0x1000);
        p.train_with_token(&tok, &taken_stream(), false);
        p.train_with_token(&tok, &taken_stream(), true);
        // One contradictory sample must not evict the hot entry.
        let exit = StreamDesc {
            start: 0x1000,
            len: 8,
            next: 0x1020,
            end: StreamEnd::Taken,
        };
        p.train_with_token(&tok, &exit, false);
        let pred = p.predict(0x1000, &prog);
        assert!(pred.stream.same_flow(&taken_stream()));
    }

    #[test]
    fn checkpoint_restores_history_and_ras() {
        let prog = loop_program();
        let mut p = StreamPredictor::paper_default();
        let tok = p.token(0x1000);
        p.train_with_token(&tok, &taken_stream(), false);
        let cp = p.checkpoint();
        let _ = p.predict(0x1000, &prog); // mutates history (next = 0x1000)
        assert_ne!(p.history, cp.history);
        p.restore(&cp);
        assert_eq!(p.history, cp.history);
        assert_eq!(p.ras.depth(), cp.ras.depth());
    }

    #[test]
    fn return_streams_use_ras() {
        let mut pb = ProgramBuilder::new();
        pb.push(straightline_block(
            0x100,
            2,
            Terminator::Call {
                target: 0x200,
                link: 0x10c,
            },
        ));
        pb.push(straightline_block(0x10c, 1, Terminator::Return));
        pb.push(straightline_block(0x200, 1, Terminator::Return));
        let prog = pb.finish().unwrap();

        let mut p = StreamPredictor::paper_default();
        let call = p.predict(0x100, &prog);
        assert_eq!(call.stream.end, StreamEnd::Call);
        assert_eq!(call.stream.next, 0x200);
        // The return stream pops the link pushed by the call.
        let ret = p.predict(0x200, &prog);
        assert_eq!(ret.stream.end, StreamEnd::Return);
        assert_eq!(ret.stream.next, 0x10c);
    }

    #[test]
    fn l2_differentiates_by_history() {
        // Same stream start, two different histories leading to different
        // continuations: L2 learns both; L1 alone cannot.
        let prog = loop_program();
        let mut p = StreamPredictor::paper_default();
        let a = StreamDesc {
            start: 0x1000,
            len: 8,
            next: 0x1000,
            end: StreamEnd::Taken,
        };
        let b = StreamDesc {
            start: 0x1000,
            len: 8,
            next: 0x1020,
            end: StreamEnd::Taken,
        };

        // History context 1 -> outcome a.
        p.history = 0x1111;
        let t1 = p.token(0x1000);
        p.train_with_token(&t1, &a, false);
        p.train_with_token(&t1, &b, false); // L1 now flip-flops
        p.train_with_token(&t1, &a, false);
        p.train_with_token(&t1, &a, false);
        // History context 2 -> outcome b.
        p.history = 0x2222;
        let t2 = p.token(0x1000);
        p.train_with_token(&t2, &b, false);
        p.train_with_token(&t2, &b, false);

        p.history = 0x1111;
        let pa = p.predict(0x1000, &prog);
        p.history = 0x2222;
        let pb = p.predict(0x1000, &prog);
        assert_eq!(pa.stream.next, 0x1000, "history 1 should predict a");
        assert_eq!(pb.stream.next, 0x1020, "history 2 should predict b");
        assert!(pb.from_l2);
    }

    #[test]
    fn long_streams_train_at_full_length() {
        // Regression: the table entry's length field used to be a u16 with
        // a silent `.min(u16::MAX)` clamp, so a synthetic stream longer
        // than 65535 instructions trained the predictor on a corrupted
        // length.  The table must reproduce what it was trained with.
        let prog = loop_program();
        let mut p = StreamPredictor::paper_default();
        let long = StreamDesc {
            start: 0x1000,
            len: 100_000, // > u16::MAX
            next: 0x1000,
            end: StreamEnd::Taken,
        };
        let tok = p.token(0x1000);
        p.train_with_token(&tok, &long, false);
        let pred = p.predict(0x1000, &prog);
        assert!(pred.table_hit, "entry should have been allocated");
        assert_eq!(
            pred.stream.len, 100_000,
            "trained length must survive table storage untruncated"
        );
        // And matching against the same stream counts as correct training
        // (the clamped entry used to mismatch forever).
        let tok = p.token(0x1000);
        p.train_with_token(&tok, &long, true);
        let pred = p.predict(0x1000, &prog);
        assert_eq!(pred.stream.len, 100_000);
    }

    #[test]
    #[should_panic(expected = "l1_entries must be a power of two")]
    fn non_pow2_l1_table_is_rejected_by_name() {
        let cfg = StreamPredictorConfig {
            l1_entries: 1000, // not a power of two: mask-indexing would alias
            ..StreamPredictorConfig::default()
        };
        let _ = StreamPredictor::new(cfg);
    }

    #[test]
    fn stats_track_sources() {
        let prog = loop_program();
        let mut p = StreamPredictor::paper_default();
        let _ = p.predict(0x1000, &prog);
        assert_eq!(p.stats().fallback_supplied, 1);
        let tok = p.token(0x1000);
        p.train_with_token(&tok, &taken_stream(), false);
        let _ = p.predict(0x1000, &prog);
        assert_eq!(p.stats().predictions, 2);
        assert!(p.stats().l1_supplied + p.stats().l2_supplied >= 1);
        assert!((p.stats().accuracy() - 0.0).abs() < 1e-9);
    }
}
