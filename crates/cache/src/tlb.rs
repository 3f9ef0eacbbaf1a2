//! Instruction TLB: a set-associative translation cache over page numbers.
//!
//! The fetch path treats translation as a presence/latency question, exactly
//! like the tag arrays in [`crate::array`]: a hit costs nothing extra (the
//! lookup overlaps the I-cache tag access), a miss charges a fixed
//! `miss_cycles` page-walk latency and installs the translation.  The model
//! is deterministic — state is a pure function of the access sequence — and
//! checkpointable, because the engine restores i-TLB state on branch
//! redirects (wrong-path fetches must not leave translations behind, or
//! replay from a checkpoint would diverge from the live run).
//!
//! Sizing follows the other SRAMs: `entries / assoc` sets, mask-indexed, so
//! both must divide into a power-of-two set count
//! ([`ITlbConfig::validate`] refuses anything else by name).

use crate::lru::LruSet;
use prestage_isa::Addr;

/// Configuration for an instruction TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ITlbConfig {
    /// Total translation entries (all ways).
    pub entries: usize,
    /// Associativity; `entries / assoc` sets, mask-indexed.
    pub assoc: usize,
    /// Page size in bytes; must be a power of two no smaller than a cache
    /// line (a line never straddles a page).
    pub page_bytes: u64,
    /// Fixed page-walk latency charged on a miss, in cycles.
    pub miss_cycles: u64,
}

impl ITlbConfig {
    /// A small, realistic default: 64 entries, 4-way, 4 KiB pages, 30-cycle
    /// walks.
    pub fn default_config() -> ITlbConfig {
        ITlbConfig {
            entries: 64,
            assoc: 4,
            page_bytes: 4096,
            miss_cycles: 30,
        }
    }

    /// Validate sizing; errors name the offending field and value.
    pub fn validate(&self, line_bytes: usize) -> Result<(), String> {
        if self.entries == 0 || self.assoc == 0 {
            return Err(format!(
                "itlb entries ({}) and assoc ({}) must both be at least 1",
                self.entries, self.assoc
            ));
        }
        if self.assoc > self.entries {
            return Err(format!(
                "itlb assoc ({}) exceeds entries ({})",
                self.assoc, self.entries
            ));
        }
        let sets = self.entries / self.assoc;
        if !sets.is_power_of_two() || sets * self.assoc != self.entries {
            return Err(format!(
                "itlb entries ({}) over assoc ({}) yields {sets} sets, which is not a \
                 power of two — TLB sets are mask-indexed and would silently alias",
                self.entries, self.assoc
            ));
        }
        if !self.page_bytes.is_power_of_two() {
            return Err(format!(
                "itlb page_bytes must be a power of two, got {}",
                self.page_bytes
            ));
        }
        if (self.page_bytes as usize) < line_bytes {
            return Err(format!(
                "itlb page_bytes ({}) below the cache line size ({line_bytes}) — a line \
                 would straddle pages",
                self.page_bytes
            ));
        }
        if self.miss_cycles == 0 {
            return Err("itlb miss_cycles must be at least 1 (a free walk is `itlb: null`)".into());
        }
        Ok(())
    }

    /// Modeled storage: one virtual-page tag plus a physical frame number
    /// per entry (8 bytes each on the 64-bit address space the ISA uses).
    pub fn state_bytes(&self) -> usize {
        self.entries * 16
    }
}

/// Opaque snapshot of i-TLB contents, captured at a predicted branch and
/// restored on redirect.  An empty checkpoint (the default) restores
/// nothing — the "no TLB configured" case.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TlbCheckpoint {
    words: Vec<u64>,
}

impl TlbCheckpoint {
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Heap bytes held by this checkpoint (capacity accounting).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * core::mem::size_of::<u64>()
    }
}

/// Hit/miss counters for the i-TLB (advisory; not part of any artifact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    pub hits: u64,
    pub misses: u64,
}

/// The instruction TLB proper.
#[derive(Debug, Clone)]
pub struct ITlb {
    page_shift: u32,
    sets: usize,
    assoc: usize,
    miss_cycles: u64,
    /// `tags[set * assoc + way]` — virtual page numbers.
    tags: Vec<u64>,
    valid: Vec<bool>,
    lru: Vec<LruSet>,
    stats: TlbStats,
}

impl ITlb {
    /// Build from a validated config.
    ///
    /// # Panics
    /// Panics when `cfg` fails [`ITlbConfig::validate`]-class sizing checks
    /// (the configuration layer validates first; these asserts defend the
    /// mask-indexing invariant).
    pub fn new(cfg: &ITlbConfig) -> ITlb {
        assert!(
            cfg.page_bytes.is_power_of_two(),
            "itlb page_bytes must be a power of two, got {}",
            cfg.page_bytes
        );
        assert!(cfg.assoc >= 1 && cfg.assoc <= cfg.entries, "itlb assoc out of range");
        let sets = cfg.entries / cfg.assoc;
        assert!(
            sets.is_power_of_two() && sets * cfg.assoc == cfg.entries,
            "itlb entries ({}) over assoc ({}) yields a non-power-of-two set count",
            cfg.entries,
            cfg.assoc
        );
        ITlb {
            page_shift: cfg.page_bytes.trailing_zeros(),
            sets,
            assoc: cfg.assoc,
            miss_cycles: cfg.miss_cycles,
            tags: vec![0; cfg.entries],
            valid: vec![false; cfg.entries],
            lru: (0..sets).map(|_| LruSet::new(cfg.assoc)).collect(),
            stats: TlbStats::default(),
        }
    }

    #[inline]
    fn page_num(&self, addr: Addr) -> u64 {
        addr >> self.page_shift
    }

    #[inline]
    fn set_of(&self, page: u64) -> usize {
        (page as usize) & (self.sets - 1)
    }

    fn find(&self, page: u64) -> Option<(usize, usize)> {
        let set = self.set_of(page);
        let base = set * self.assoc;
        (0..self.assoc)
            .find(|&w| self.valid[base + w] && self.tags[base + w] == page)
            .map(|w| (set, w))
    }

    /// Translate the page containing `addr`.  Returns the cycle at which
    /// the translation is available: `now` on a hit, `now + miss_cycles` on
    /// a miss (the walk also installs the translation, evicting LRU).
    pub fn translate(&mut self, addr: Addr, now: u64) -> u64 {
        let page = self.page_num(addr);
        if let Some((set, way)) = self.find(page) {
            self.lru[set].touch(way);
            self.stats.hits += 1;
            return now;
        }
        self.stats.misses += 1;
        let set = self.set_of(page);
        let base = set * self.assoc;
        let way = (0..self.assoc)
            .find(|&w| !self.valid[base + w])
            .unwrap_or_else(|| self.lru[set].lru());
        self.tags[base + way] = page;
        self.valid[base + way] = true;
        self.lru[set].touch(way);
        now.saturating_add(self.miss_cycles)
    }

    /// Presence probe with no replacement or statistics side effects — what
    /// a mechanism uses to *probe around* a would-be miss instead of paying
    /// for the walk.
    pub fn probe(&self, addr: Addr) -> bool {
        self.find(self.page_num(addr)).is_some()
    }

    /// Fixed page-walk latency this TLB charges on a miss.
    pub fn miss_cycles(&self) -> u64 {
        self.miss_cycles
    }

    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Modeled storage for budget accounting (mirrors
    /// [`ITlbConfig::state_bytes`]).
    pub fn state_bytes(&self) -> usize {
        self.sets * self.assoc * 16
    }

    /// Snapshot tags, valid bits and replacement state (not statistics —
    /// counters keep counting across redirects like every other array).
    pub fn checkpoint(&self) -> TlbCheckpoint {
        let mut words = Vec::with_capacity(self.tags.len() * 3);
        for i in 0..self.tags.len() {
            words.push(self.tags[i]);
            words.push(u64::from(self.valid[i]));
        }
        for set in &self.lru {
            for way in 0..set.ways() {
                words.push(u64::from(set.rank_of(way)));
            }
        }
        TlbCheckpoint { words }
    }

    /// Restore a snapshot taken by [`checkpoint`](Self::checkpoint) on this
    /// same geometry.  An empty checkpoint is a no-op.
    pub fn restore(&mut self, cp: &TlbCheckpoint) {
        if cp.words.is_empty() {
            return;
        }
        let n = self.tags.len();
        assert!(
            cp.words.len() == n * 3,
            "itlb checkpoint holds {} words, this geometry needs {} — \
             checkpoint/restore crossed configurations",
            cp.words.len(),
            n * 3
        );
        for i in 0..n {
            self.tags[i] = cp.words[2 * i];
            self.valid[i] = cp.words[2 * i + 1] != 0;
        }
        // Replacement ranks: rebuild each set by touching ways in reverse
        // rank order (coldest first), which reproduces the exact permutation.
        for (s, set) in self.lru.iter_mut().enumerate() {
            let base = 2 * n + s * self.assoc;
            let ranks = &cp.words[base..base + self.assoc];
            let mut order: Vec<usize> = (0..self.assoc).collect();
            order.sort_by_key(|&w| core::cmp::Reverse(ranks[w]));
            for w in order {
                set.touch(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ITlb {
        ITlb::new(&ITlbConfig {
            entries: 8,
            assoc: 2,
            page_bytes: 4096,
            miss_cycles: 25,
        })
    }

    #[test]
    fn miss_then_hit_within_page() {
        let mut t = tiny();
        assert_eq!(t.translate(0x1000, 100), 125); // cold miss
        assert_eq!(t.translate(0x1fff, 130), 130); // same page: hit
        assert_eq!(t.translate(0x2000, 130), 155); // next page: miss
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut t = tiny();
        assert!(!t.probe(0x5000));
        t.translate(0x5000, 0);
        assert!(t.probe(0x5000));
        let stats_before = *t.stats();
        assert!(t.probe(0x5000));
        assert_eq!(*t.stats(), stats_before);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 4 sets, 2 ways; pages 0, 4, 8 share set 0.
        let mut t = tiny();
        t.translate(0x0000, 0);
        t.translate(0x4000, 0);
        t.translate(0x0000, 0); // refresh page 0
        t.translate(0x8000, 0); // evicts page 4
        assert!(t.probe(0x0000));
        assert!(!t.probe(0x4000));
        assert!(t.probe(0x8000));
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let mut t = tiny();
        for (addr, at) in [(0x1000u64, 0u64), (0x2000, 5), (0x1000, 9), (0x9000, 12)] {
            t.translate(addr, at);
        }
        let cp = t.checkpoint();
        let mut u = tiny();
        u.restore(&cp);
        // Identical contents…
        for page in 0..16u64 {
            assert_eq!(t.probe(page << 12), u.probe(page << 12), "page {page}");
        }
        // …and identical future behavior (replacement state restored too).
        for (addr, at) in [(0x3000u64, 20u64), (0x1000, 21), (0xb000, 22), (0x7000, 23)] {
            assert_eq!(t.translate(addr, at), u.translate(addr, at), "addr {addr:#x}");
        }
    }

    #[test]
    fn empty_checkpoint_is_noop() {
        let mut t = tiny();
        t.translate(0x1000, 0);
        t.restore(&TlbCheckpoint::default());
        assert!(t.probe(0x1000));
    }

    #[test]
    fn deterministic_across_instances() {
        let seq: Vec<(u64, u64)> = (0..200).map(|i| (((i * 37) % 64) << 12, i)).collect();
        let mut a = tiny();
        let mut b = tiny();
        for &(addr, at) in &seq {
            assert_eq!(a.translate(addr, at), b.translate(addr, at));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn validate_names_offending_fields() {
        let ok = ITlbConfig::default_config();
        assert!(ok.validate(64).is_ok());
        let bad_sets = ITlbConfig { entries: 48, assoc: 4, ..ok };
        assert!(bad_sets.validate(64).unwrap_err().contains("entries (48)"));
        let bad_page = ITlbConfig { page_bytes: 3000, ..ok };
        assert!(bad_page.validate(64).unwrap_err().contains("page_bytes"));
        let small_page = ITlbConfig { page_bytes: 32, ..ok };
        assert!(small_page.validate(64).unwrap_err().contains("line"));
        let free_walk = ITlbConfig { miss_cycles: 0, ..ok };
        assert!(free_walk.validate(64).unwrap_err().contains("miss_cycles"));
        let zero = ITlbConfig { entries: 0, ..ok };
        assert!(zero.validate(64).unwrap_err().contains("entries"));
    }

    #[test]
    fn state_bytes_accounting() {
        let cfg = ITlbConfig::default_config();
        assert_eq!(cfg.state_bytes(), 64 * 16);
        assert_eq!(ITlb::new(&cfg).state_bytes(), cfg.state_bytes());
    }

    #[test]
    #[should_panic(expected = "checkpoint holds")]
    fn cross_geometry_restore_is_refused() {
        let big = ITlb::new(&ITlbConfig {
            entries: 16,
            assoc: 2,
            page_bytes: 4096,
            miss_cycles: 25,
        });
        let cp = big.checkpoint();
        tiny().restore(&cp);
    }
}
