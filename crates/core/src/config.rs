//! Front-end configuration and derived latencies.

use prestage_cache::{ITlbConfig, InsertionPolicy};
use prestage_cacti::{latency_cycles, CacheGeometry, TechNode};

/// Which prefetch engine drives the pre-buffer.
///
/// Every kind is a pluggable mechanism behind the
/// [`InstrPrefetcher`](crate::prefetch::InstrPrefetcher) trait; the
/// front-end is generic over the mechanism and the registry hook is the
/// monomorphic `InstrPrefetcher::from_config`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// No prefetching (baseline).
    None,
    /// Fetch Directed Prefetching with Enqueue Cache Probe Filtering.
    Fdp,
    /// Cache Line Guided Prestaging.
    Clgp,
    /// Next-N-line prefetching (Smith '82), the classic sequential scheme
    /// of the paper's related work: each demand line fetch triggers
    /// prefetches of the next `nlp_degree` sequential lines into an
    /// FDP-style buffer.
    NextLine,
    /// MANA (Ansari et al., "MANA: Microarchitecting an Instruction
    /// Prefetcher", HPCA'20-style record-and-replay): spatial-region
    /// records keyed by trigger line in a set-associative MANA table,
    /// chained by successor pointers and chased ahead of fetch by a small
    /// stream address buffer.
    Mana,
    /// High-level program-map traversal (Murthy & Sohi): a coarse-grained
    /// region-successor map over the workload's block graph; fetching into
    /// a new region prefetches the lines of the next learned region(s).
    ProgMap,
}

impl PrefetcherKind {
    /// All kinds, ladder order (baseline → classic → paper → modern).
    pub fn all() -> [PrefetcherKind; 6] {
        use PrefetcherKind::*;
        [None, NextLine, Fdp, Clgp, Mana, ProgMap]
    }

    /// Stable identifier used by `ExperimentSpec` JSON and the CLI.
    pub fn id(self) -> &'static str {
        match self {
            PrefetcherKind::None => "none",
            PrefetcherKind::Fdp => "fdp",
            PrefetcherKind::Clgp => "clgp",
            PrefetcherKind::NextLine => "nextline",
            PrefetcherKind::Mana => "mana",
            PrefetcherKind::ProgMap => "progmap",
        }
    }

    /// Parse an [`id`](Self::id) (case-insensitive).
    pub fn from_id(s: &str) -> Option<PrefetcherKind> {
        let s = s.trim().to_lowercase();
        PrefetcherKind::all().into_iter().find(|k| k.id() == s)
    }

    /// Human-readable label for figure legends.
    pub fn label(self) -> &'static str {
        match self {
            PrefetcherKind::None => "no prefetch",
            PrefetcherKind::Fdp => "FDP",
            PrefetcherKind::Clgp => "CLGP",
            PrefetcherKind::NextLine => "next-N-line",
            PrefetcherKind::Mana => "MANA",
            PrefetcherKind::ProgMap => "program map",
        }
    }
}

/// Static configuration of the front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontendConfig {
    pub tech: TechNode,
    /// Instructions delivered per cycle (Table 2: 4).
    pub fetch_width: u32,
    /// I-cache line size in bytes (Table 2: 64).
    pub line_bytes: u64,
    /// L1 I-cache capacity in bytes.
    pub l1_capacity: usize,
    /// L1 associativity (Table 2: 2).
    pub l1_assoc: usize,
    /// Pipeline the L1 access (latency stages, 1/cycle throughput).
    pub l1_pipelined: bool,
    /// Figure 1's "ideal": the L1 answers in one cycle regardless of size.
    pub ideal_l1: bool,
    /// Optional L0 filter cache capacity (fully associative).
    pub l0_capacity: Option<usize>,
    /// Pre-buffer entries (64 B lines); 0 disables the pre-buffer.
    pub pb_entries: usize,
    /// Pipeline the pre-buffer access (the 16-entry configurations).
    pub pb_pipelined: bool,
    /// Decoupling-queue capacity in fetch blocks (Table 2 text: 8).
    pub queue_blocks: usize,
    pub prefetcher: PrefetcherKind,
    /// FDP prefetch-instruction-queue entries.
    pub piq_entries: usize,
    /// Maximum overlapped line fetches (fetch pipeline depth).
    pub max_inflight: usize,
    /// Sequential prefetch degree for [`PrefetcherKind::NextLine`].
    pub nlp_degree: u32,
    /// MANA-table entries (total, across its 4-way sets); power of two.
    pub mana_entries: usize,
    /// Lines per MANA spatial region (trigger + `region - 1` bitmap bits);
    /// at most 33 (a `u32` bitmap plus the trigger line itself).
    pub mana_region_lines: u32,
    /// Stream-address-buffer entries (active MANA record chains).
    pub mana_sab_entries: usize,
    /// Records chased ahead per MANA stream advance.
    pub mana_degree: u32,
    /// Program-map entries (direct-mapped region-successor table); power
    /// of two.
    pub progmap_entries: usize,
    /// Program-map region granularity in bytes; power of two, at least
    /// one cache line.
    pub progmap_region_bytes: u64,
    /// Regions traversed ahead per program-map region change.
    pub progmap_degree: u32,
    /// Ablation: CLGP's prestage buffer uses FDP's free-on-use replacement
    /// instead of consumers counters (quantifies the counter's coverage).
    pub ablate_free_on_use: bool,
    /// Ablation: CLGP migrates used prestage lines into the L0/L1 like FDP
    /// (quantifies the no-duplication policy).
    pub ablate_migrate: bool,
    /// Ablation: CLGP filters L1-resident lines like FDP (quantifies
    /// hit-latency avoidance, the paper's "even to avoid the hit penalty").
    pub ablate_filter: bool,
    /// Optional instruction TLB.  `None` models free translation (the
    /// paper's implicit assumption); `Some` threads every fetched or
    /// prefetched address through a set-associative i-TLB whose misses
    /// charge a fixed page-walk latency.
    pub itlb: Option<ITlbConfig>,
    /// Insertion-policy override for *prefetch-class* fills into the
    /// L0/L1 (migrated pre-buffer lines).  `None` uses each mechanism's
    /// own choice
    /// ([`prefetch_insertion`](crate::prefetch::InstrPrefetcher::prefetch_insertion),
    /// MRU for every current mechanism); `Some` forces one policy across
    /// mechanisms for apples-to-apples sweeps.
    pub insertion: Option<InsertionPolicy>,
}

impl FrontendConfig {
    /// A Table 2 baseline at `tech` with the given L1 capacity: no
    /// prefetching, no L0, non-pipelined L1.
    pub fn base(tech: TechNode, l1_capacity: usize) -> Self {
        FrontendConfig {
            tech,
            fetch_width: 4,
            line_bytes: 64,
            l1_capacity,
            l1_assoc: 2,
            l1_pipelined: false,
            ideal_l1: false,
            l0_capacity: None,
            pb_entries: 0,
            pb_pipelined: false,
            queue_blocks: 8,
            prefetcher: PrefetcherKind::None,
            piq_entries: 8,
            max_inflight: 4,
            nlp_degree: 2,
            mana_entries: 1024,
            mana_region_lines: 8,
            mana_sab_entries: 4,
            mana_degree: 2,
            progmap_entries: 2048,
            progmap_region_bytes: 256,
            progmap_degree: 2,
            ablate_free_on_use: false,
            ablate_migrate: false,
            ablate_filter: false,
            itlb: None,
            insertion: None,
        }
    }

    /// Check every sizing invariant the storage structures assume, naming
    /// the offending field.  Mask-indexed tables (the L1's sets, the MANA
    /// table, the program map) silently alias on non-power-of-two sizes,
    /// so spec consumers validate here *before* anything is constructed.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line_bytes {} is not a power of two",
                self.line_bytes
            ));
        }
        if !self.l1_capacity.is_power_of_two() {
            return Err(format!(
                "l1_capacity {} is not a power of two (cache sets are \
                 mask-indexed and would silently alias)",
                self.l1_capacity
            ));
        }
        let lines = self.l1_capacity / self.line_bytes as usize;
        if self.l1_assoc == 0 || lines < self.l1_assoc {
            return Err(format!(
                "l1_assoc {} does not fit {} lines of l1_capacity",
                self.l1_assoc, lines
            ));
        }
        let sets = lines / self.l1_assoc;
        if !sets.is_power_of_two() || sets * self.l1_assoc != lines {
            return Err(format!(
                "l1_assoc {} over {lines} lines yields a non-power-of-two \
                 set count ({sets}) — set indexing is mask-based and would \
                 silently alias",
                self.l1_assoc
            ));
        }
        if let Some(l0) = self.l0_capacity {
            if !l0.is_power_of_two() {
                return Err(format!("l0_capacity {l0} is not a power of two"));
            }
        }
        if self.prefetcher == PrefetcherKind::Mana {
            if !self.mana_entries.is_power_of_two() {
                return Err(format!(
                    "mana_entries {} is not a power of two (the MANA table \
                     is mask-indexed)",
                    self.mana_entries
                ));
            }
            if self.mana_region_lines < 2 || self.mana_region_lines > 33 {
                return Err(format!(
                    "mana_region_lines {} out of range 2..=33 (a u32 bitmap \
                     plus the trigger line)",
                    self.mana_region_lines
                ));
            }
            if self.mana_sab_entries == 0 {
                return Err("mana_sab_entries must be at least 1".into());
            }
        }
        if let Some(itlb) = &self.itlb {
            itlb.validate(self.line_bytes as usize)?;
        }
        if self.prefetcher == PrefetcherKind::ProgMap {
            if !self.progmap_entries.is_power_of_two() {
                return Err(format!(
                    "progmap_entries {} is not a power of two (the program \
                     map is mask-indexed)",
                    self.progmap_entries
                ));
            }
            if !self.progmap_region_bytes.is_power_of_two()
                || self.progmap_region_bytes < self.line_bytes
            {
                return Err(format!(
                    "progmap_region_bytes {} must be a power of two of at \
                     least one {}-byte line",
                    self.progmap_region_bytes, self.line_bytes
                ));
            }
        }
        Ok(())
    }

    /// The single-cycle pre-buffer/L0 size CACTI allows at `tech`
    /// (§5.1: 512 B at 0.09 µm, 256 B at 0.045 µm), in 64-byte lines.
    pub fn one_cycle_buffer_lines(tech: TechNode) -> usize {
        let mut lines = 1usize;
        while lines < 64 {
            let next = CacheGeometry::fully_associative((lines * 2) * 64, 64, 1);
            if latency_cycles(&next, tech) > 1 {
                break;
            }
            lines *= 2;
        }
        lines
    }

    /// L1 access latency in cycles.
    pub fn l1_latency(&self) -> u32 {
        if self.ideal_l1 {
            return 1;
        }
        let g = CacheGeometry::new(self.l1_capacity, self.line_bytes as usize, self.l1_assoc, 1);
        latency_cycles(&g, self.tech)
    }

    /// L0 access latency in cycles (the L0 is sized to be single cycle).
    pub fn l0_latency(&self) -> u32 {
        match self.l0_capacity {
            Some(c) => {
                let g = CacheGeometry::fully_associative(c, self.line_bytes as usize, 1);
                latency_cycles(&g, self.tech)
            }
            None => 1,
        }
    }

    /// Pre-buffer access latency in cycles.
    pub fn pb_latency(&self) -> u32 {
        if self.pb_entries == 0 {
            return 1;
        }
        let bytes = (self.pb_entries * self.line_bytes as usize).next_power_of_two();
        let g = CacheGeometry::fully_associative(bytes, self.line_bytes as usize, 1);
        latency_cycles(&g, self.tech)
    }

    /// Extra pipeline stages the fetch stage contributes beyond one:
    /// pipelined arrays insert their full latency into the front-end,
    /// which is what inflates the branch-misprediction penalty (§1).
    pub fn fetch_pipeline_stages(&self) -> u32 {
        let mut stages = 1;
        if self.l1_pipelined {
            stages = stages.max(self.l1_latency());
        }
        if self.pb_pipelined {
            stages = stages.max(self.pb_latency());
        }
        stages
    }

    /// Total one-cycle-reachable cache budget in bytes (pre-buffer + L0),
    /// used for the paper's hardware-budget comparisons.
    pub fn one_cycle_budget_bytes(&self) -> usize {
        self.pb_entries * self.line_bytes as usize + self.l0_capacity.unwrap_or(0)
    }

    /// Total front-end storage budget (pre-buffer + L0 + L1).
    pub fn total_budget_bytes(&self) -> usize {
        self.one_cycle_budget_bytes() + self.l1_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cycle_buffer_sizes_match_paper() {
        assert_eq!(FrontendConfig::one_cycle_buffer_lines(TechNode::T090), 8); // 512 B
        assert_eq!(FrontendConfig::one_cycle_buffer_lines(TechNode::T045), 4); // 256 B
    }

    #[test]
    fn latencies_derive_from_table3() {
        let c = FrontendConfig::base(TechNode::T045, 8 << 10);
        assert_eq!(c.l1_latency(), 4);
        let c9 = FrontendConfig::base(TechNode::T090, 8 << 10);
        assert_eq!(c9.l1_latency(), 3);
    }

    #[test]
    fn ideal_l1_is_single_cycle() {
        let mut c = FrontendConfig::base(TechNode::T045, 64 << 10);
        c.ideal_l1 = true;
        assert_eq!(c.l1_latency(), 1);
    }

    #[test]
    fn pb16_latency_matches_section51() {
        // 16-entry pre-buffer = 1 KB: "pipelined into two stages at 0.09um
        // and into three stages at 0.045um".
        let mut c = FrontendConfig::base(TechNode::T090, 4 << 10);
        c.pb_entries = 16;
        assert_eq!(c.pb_latency(), 2);
        c.tech = TechNode::T045;
        assert_eq!(c.pb_latency(), 3);
    }

    #[test]
    fn fetch_stage_depth_tracks_pipelined_arrays() {
        let mut c = FrontendConfig::base(TechNode::T045, 64 << 10);
        assert_eq!(c.fetch_pipeline_stages(), 1);
        c.l1_pipelined = true;
        assert_eq!(c.fetch_pipeline_stages(), 5); // 64KB @0.045 = 5 cycles
        c.l1_pipelined = false;
        c.pb_entries = 16;
        c.pb_pipelined = true;
        assert_eq!(c.fetch_pipeline_stages(), 3);
    }

    #[test]
    fn itlb_validation_is_threaded_through() {
        let mut c = FrontendConfig::base(TechNode::T090, 4 << 10);
        assert!(c.validate().is_ok());
        c.itlb = Some(ITlbConfig::default_config());
        assert!(c.validate().is_ok());
        c.itlb = Some(ITlbConfig {
            page_bytes: 32, // below the 64-byte line
            ..ITlbConfig::default_config()
        });
        let err = c.validate().unwrap_err();
        assert!(err.contains("page_bytes"), "got: {err}");
        c.itlb = Some(ITlbConfig {
            entries: 48,
            ..ITlbConfig::default_config()
        });
        assert!(c.validate().unwrap_err().contains("itlb entries"));
    }

    #[test]
    fn budget_accounting() {
        let mut c = FrontendConfig::base(TechNode::T090, 1 << 10);
        c.pb_entries = 16;
        c.l0_capacity = Some(512);
        // 1KB PB + 0.5KB L0 + 1KB L1 = 2.5KB: the paper's §5.1 example.
        assert_eq!(c.total_budget_bytes(), 2560);
        assert_eq!(c.one_cycle_budget_bytes(), 1536);
    }
}
