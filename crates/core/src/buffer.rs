//! The pre-buffer: FDP's prefetch buffer and CLGP's prestage buffer.
//!
//! Both are small fully-associative line stores; the semantics differ
//! exactly as §3 of the paper describes:
//!
//! * **FDP prefetch buffer**: an entry is freed the moment the fetch unit
//!   uses it (the line is migrated into the I-cache/L0 by the front-end);
//!   allocation takes any free entry.
//! * **CLGP prestage buffer**: each entry carries a **consumers counter**
//!   counting queued CLTQ references.  Allocation may only replace an entry
//!   whose counter is zero (LRU among those); a fetch decrements the
//!   counter but the line *stays valid* and may hit again; a branch
//!   misprediction resets every counter to zero while leaving valid lines
//!   in place ("cache lines ... from the incorrect predicted path remain
//!   useful as long as the valid bit is set").

use prestage_cache::ReqId;
use prestage_isa::Addr;

/// Replacement/usage semantics of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbKind {
    /// FDP prefetch buffer: free-on-use.
    Fdp,
    /// CLGP prestage buffer: consumers-counter lifetime.
    Clgp,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Empty,
    /// Prefetch in flight (valid bit unset).
    Pending(ReqId),
    Valid,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: Addr,
    state: EntryState,
    consumers: u32,
    /// LRU stamp: smaller = older.
    lru: u64,
}

/// Result of a fetch-side lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PbLookup {
    /// Line present and usable now.
    Valid,
    /// Line allocated, data still in flight.
    Pending,
    /// Not present.
    Miss,
}

/// A fully associative pre-buffer.
#[derive(Debug, Clone)]
pub struct PreBuffer {
    kind: PbKind,
    entries: Vec<Entry>,
    tick: u64,
}

impl PreBuffer {
    pub fn new(kind: PbKind, n_entries: usize) -> Self {
        assert!(n_entries >= 1);
        PreBuffer {
            kind,
            entries: vec![
                Entry {
                    line: 0,
                    state: EntryState::Empty,
                    consumers: 0,
                    lru: 0,
                };
                n_entries
            ],
            tick: 0,
        }
    }

    pub fn kind(&self) -> PbKind {
        self.kind
    }

    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    fn stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn find(&self, line: Addr) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.state != EntryState::Empty && e.line == line)
    }

    /// Fetch-side lookup (does not change any state).
    pub fn lookup(&self, line: Addr) -> PbLookup {
        match self.find(line) {
            Some(i) => match self.entries[i].state {
                EntryState::Valid => PbLookup::Valid,
                EntryState::Pending(_) => PbLookup::Pending,
                EntryState::Empty => unreachable!(),
            },
            None => PbLookup::Miss,
        }
    }

    /// True when the line is present and valid right now.
    pub fn is_valid(&self, line: Addr) -> bool {
        self.lookup(line) == PbLookup::Valid
    }

    /// CLGP: bump the consumers counter of an existing entry (a CLTQ slot
    /// references it).  Returns false if the line is not present.
    pub fn bump_consumers(&mut self, line: Addr) -> bool {
        let Some(i) = self.find(line) else {
            return false;
        };
        self.entries[i].consumers += 1;
        true
    }

    /// Whether an allocation for a new prefetch could succeed right now.
    pub fn can_allocate(&self) -> bool {
        match self.kind {
            // FDP: an empty (used) entry, or any valid entry to LRU-replace
            // (never-used lines must not clog the buffer forever; only
            // in-flight entries are pinned).
            PbKind::Fdp => self
                .entries
                .iter()
                .any(|e| matches!(e.state, EntryState::Empty | EntryState::Valid)),
            PbKind::Clgp => self.entries.iter().any(|e| e.consumers == 0),
        }
    }

    /// Allocate an entry for `line`, recording the in-flight request.
    /// Returns false when no entry is replaceable (the prefetcher stalls).
    ///
    /// CLGP picks the LRU entry among those with a zero consumers counter
    /// (empty entries first); the new entry starts with `consumers = 1` and
    /// valid unset, per §3.2.3.
    pub fn allocate(&mut self, line: Addr, req: ReqId) -> bool {
        debug_assert!(self.find(line).is_none(), "line already buffered");
        let victim = match self.kind {
            PbKind::Fdp => {
                let empty = self
                    .entries
                    .iter()
                    .position(|e| e.state == EntryState::Empty);
                empty.or_else(|| {
                    // LRU among valid (arrived but never used) entries.
                    self.entries
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.state == EntryState::Valid)
                        .min_by_key(|(_, e)| e.lru)
                        .map(|(i, _)| i)
                })
            }
            PbKind::Clgp => {
                let empty = self
                    .entries
                    .iter()
                    .position(|e| e.state == EntryState::Empty && e.consumers == 0);
                empty.or_else(|| {
                    self.entries
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.consumers == 0)
                        .min_by_key(|(_, e)| e.lru)
                        .map(|(i, _)| i)
                })
            }
        };
        let Some(i) = victim else {
            return false;
        };
        let lru = self.stamp();
        self.entries[i] = Entry {
            line,
            state: EntryState::Pending(req),
            consumers: if self.kind == PbKind::Clgp { 1 } else { 0 },
            lru,
        };
        true
    }

    /// Install an already-available line directly (e.g. a CLGP prefetch
    /// that found the line in the L1 and copies it over after the L1
    /// latency; the caller models the delay by calling this at arrival
    /// time).  Same replacement rules as [`PreBuffer::allocate`].
    pub fn install_valid(&mut self, line: Addr) -> bool {
        if let Some(i) = self.find(line) {
            self.entries[i].state = EntryState::Valid;
            return true;
        }
        // Reuse allocate's victim policy with a dummy id, then mark valid.
        if !self.allocate(line, ReqId(u64::MAX)) {
            return false;
        }
        let i = self.find(line).expect("just allocated");
        self.entries[i].state = EntryState::Valid;
        true
    }

    /// A prefetch completion arrived: mark the pending entry valid.
    /// Returns the line if an entry was still waiting for this request
    /// (it may have been replaced meanwhile — then the fill is dropped).
    pub fn complete(&mut self, req: ReqId) -> Option<Addr> {
        for e in &mut self.entries {
            if e.state == EntryState::Pending(req) {
                e.state = EntryState::Valid;
                return Some(e.line);
            }
        }
        None
    }

    /// The fetch unit consumed `line`.
    ///
    /// * FDP: the entry is freed (caller migrates the line to a cache).
    /// * CLGP: consumers counter decrements (saturating); the line stays.
    pub fn consume(&mut self, line: Addr) {
        let Some(i) = self.find(line) else {
            return;
        };
        match self.kind {
            PbKind::Fdp => self.entries[i].state = EntryState::Empty,
            PbKind::Clgp => {
                self.entries[i].consumers = self.entries[i].consumers.saturating_sub(1);
                let stamp = self.stamp();
                self.entries[i].lru = stamp;
            }
        }
    }

    /// Branch misprediction: CLGP resets all consumers counters (entries
    /// become replaceable) but keeps valid lines; FDP buffers keep their
    /// contents too (lines may still be useful on the correct path).
    pub fn on_mispredict(&mut self) {
        if self.kind == PbKind::Clgp {
            for e in &mut self.entries {
                e.consumers = 0;
            }
        }
    }

    /// Number of non-empty entries.
    pub fn occupancy(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.state != EntryState::Empty)
            .count()
    }

    /// Sum of consumers counters (CLGP pressure metric).
    pub fn total_consumers(&self) -> u32 {
        self.entries.iter().map(|e| e.consumers).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R1: ReqId = ReqId(1);
    const R2: ReqId = ReqId(2);
    const R3: ReqId = ReqId(3);

    #[test]
    fn fdp_free_on_use() {
        let mut pb = PreBuffer::new(PbKind::Fdp, 2);
        assert!(pb.allocate(0x1000, R1));
        assert_eq!(pb.lookup(0x1000), PbLookup::Pending);
        assert_eq!(pb.complete(R1), Some(0x1000));
        assert_eq!(pb.lookup(0x1000), PbLookup::Valid);
        pb.consume(0x1000);
        assert_eq!(pb.lookup(0x1000), PbLookup::Miss);
        assert!(pb.can_allocate());
    }

    #[test]
    fn fdp_stalls_on_inflight_but_replaces_stale_valid() {
        let mut pb = PreBuffer::new(PbKind::Fdp, 2);
        assert!(pb.allocate(0x1000, R1));
        assert!(pb.allocate(0x2000, R2));
        // Both in flight: nothing replaceable.
        assert!(!pb.can_allocate());
        assert!(!pb.allocate(0x3000, R3));
        // One arrives but is never used: it becomes the LRU fallback victim
        // so stale lines cannot clog the buffer.
        pb.complete(R1);
        assert!(pb.can_allocate());
        assert!(pb.allocate(0x3000, R3));
        assert_eq!(pb.lookup(0x1000), PbLookup::Miss);
        assert_eq!(pb.lookup(0x2000), PbLookup::Pending);
    }

    #[test]
    fn clgp_consumer_lifetime() {
        let mut pb = PreBuffer::new(PbKind::Clgp, 2);
        assert!(pb.allocate(0x1000, R1)); // consumers = 1
        assert!(pb.bump_consumers(0x1000)); // = 2
        pb.complete(R1);
        // One consumer fetches: counter 1, still valid, not replaceable.
        pb.consume(0x1000);
        assert_eq!(pb.lookup(0x1000), PbLookup::Valid);
        assert!(pb.allocate(0x2000, R2)); // uses the empty entry
        // Both entries now have live consumers: nothing is replaceable.
        assert!(!pb.can_allocate());
        // Second consumer fetches: counter 0 — now replaceable, line stays.
        pb.consume(0x1000);
        assert_eq!(pb.lookup(0x1000), PbLookup::Valid);
        assert!(pb.allocate(0x3000, R3)); // replaces 0x1000 (consumers 0)
        assert_eq!(pb.lookup(0x1000), PbLookup::Miss);
    }

    #[test]
    fn clgp_replaces_lru_among_free() {
        let mut pb = PreBuffer::new(PbKind::Clgp, 3);
        pb.allocate(0x1000, R1);
        pb.allocate(0x2000, R2);
        pb.allocate(0x3000, R3);
        pb.complete(R1);
        pb.complete(R2);
        pb.complete(R3);
        // Drain all consumers; touch order 0x1000 (oldest) .. 0x3000.
        pb.consume(0x1000);
        pb.consume(0x2000);
        pb.consume(0x3000);
        // All replaceable; LRU is 0x1000 (earliest final touch).
        assert!(pb.allocate(0x4000, ReqId(9)));
        assert_eq!(pb.lookup(0x1000), PbLookup::Miss);
        assert_eq!(pb.lookup(0x2000), PbLookup::Valid);
    }

    #[test]
    fn clgp_mispredict_resets_counters_keeps_lines() {
        let mut pb = PreBuffer::new(PbKind::Clgp, 2);
        pb.allocate(0x1000, R1);
        pb.bump_consumers(0x1000);
        pb.bump_consumers(0x1000);
        pb.complete(R1);
        pb.on_mispredict();
        assert_eq!(pb.total_consumers(), 0);
        // Line still answers hits (useful wrong-path line)...
        assert_eq!(pb.lookup(0x1000), PbLookup::Valid);
        // ...but is replaceable by new correct-path prefetches.
        assert!(pb.allocate(0x2000, R2));
        assert!(pb.allocate(0x3000, R3));
        assert_eq!(pb.lookup(0x1000), PbLookup::Miss);
    }

    #[test]
    fn pending_entry_replaced_after_reset_drops_late_fill() {
        let mut pb = PreBuffer::new(PbKind::Clgp, 1);
        pb.allocate(0x1000, R1);
        pb.on_mispredict(); // consumers -> 0 while still pending
        assert!(pb.allocate(0x2000, R2)); // replaces the pending entry
        // The late completion for the replaced request is dropped.
        assert_eq!(pb.complete(R1), None);
        assert_eq!(pb.complete(R2), Some(0x2000));
    }

    #[test]
    fn install_valid_immediate() {
        let mut pb = PreBuffer::new(PbKind::Clgp, 2);
        assert!(pb.install_valid(0x7000));
        assert_eq!(pb.lookup(0x7000), PbLookup::Valid);
        // Installing over a pending entry upgrades it.
        pb.allocate(0x8000, R1);
        assert!(pb.install_valid(0x8000));
        assert_eq!(pb.lookup(0x8000), PbLookup::Valid);
    }

    #[test]
    fn consume_on_missing_line_is_noop() {
        let mut pb = PreBuffer::new(PbKind::Fdp, 1);
        pb.consume(0xdead_0000); // must not panic
        assert_eq!(pb.occupancy(), 0);
    }
}
