//! The out-of-order back-end: a SimpleScalar-flavoured Register Update Unit.
//!
//! Table 2: 4-wide issue/commit, 64-instruction RUU, 32 KB 2-way L1 D-cache
//! with two ports and one-cycle hits, unified L2 behind the shared bus
//! (D-cache requests have top priority), 200-cycle memory.
//!
//! The model is a scoreboarded window: instructions dispatch in order into
//! the RUU, issue out of order when their source registers are ready (up to
//! `width` per cycle, oldest first), execute with per-class latencies
//! (loads access the D-cache; misses go through the shared L2 system), and
//! commit in order.  Stores retire into the D-cache at issue (an idealised
//! store buffer); dirty evictions generate writeback traffic on the L2 bus.
//! Wrong-path instructions never enter the RUU (they only perturb the
//! front-end and memory system), a simplification documented in DESIGN.md.

use prestage_cache::{Completion, L2System, ReqClass, ReqId, SetAssocCache};
use prestage_isa::{Addr, OpClass, Reg, StaticInst, NUM_REGS};
use prestage_json::counters;
use std::collections::VecDeque;

/// Back-end configuration (Table 2 defaults via [`BackendConfig::default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendConfig {
    /// Issue and commit width.
    pub width: u32,
    /// RUU entries.
    pub ruu_size: usize,
    /// D-cache capacity in bytes.
    pub dcache_capacity: usize,
    pub dcache_assoc: usize,
    pub dcache_line: usize,
    /// D-cache ports (loads + stores per cycle).
    pub dcache_ports: u32,
    /// D-cache hit latency in cycles.
    pub dcache_latency: u32,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            width: 4,
            ruu_size: 64,
            dcache_capacity: 32 << 10,
            dcache_assoc: 2,
            dcache_line: 64,
            dcache_ports: 2,
            dcache_latency: 1,
        }
    }
}

counters! {
    /// Back-end statistics.
    pub struct BackendStats {
        pub committed: u64,
        pub loads: u64,
        pub stores: u64,
        pub dcache_hits: u64,
        pub dcache_misses: u64,
        pub branches: u64,
        /// Cycles in which nothing committed.
        pub commit_stall_cycles: u64,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EState {
    Waiting,
    WaitMem(ReqId),
    Done(u64),
}

#[derive(Debug, Clone, Copy)]
struct RuuEntry {
    seq: u64,
    op: OpClass,
    dst: Option<Reg>,
    mem_addr: Option<Addr>,
    state: EState,
    /// Per-source producer captured at dispatch: either a concrete ready
    /// time, or `DEP | seq` of the in-flight producer (wakeup patches it
    /// to a time when that producer finishes).  Capturing at dispatch
    /// avoids WAR hazards against younger writers.  Packing the tag into
    /// the time keeps the entry inside one cache line and makes the
    /// readiness test two plain compares (a tagged value can never be
    /// `<= now`).
    src_time: [u64; 2],
    /// Resolving this instruction triggers a front-end redirect.
    mispredict: bool,
}

/// Result of one back-end cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackTick {
    pub committed_now: u32,
    /// A mispredicted branch resolved this cycle (its dynamic sequence
    /// number); the engine must redirect the front-end.
    pub resolved_mispredict: Option<u64>,
}

/// The RUU back-end.
#[derive(Debug)]
pub struct BackEnd {
    cfg: BackendConfig,
    ruu: VecDeque<RuuEntry>,
    /// Cycle at which each architectural register's value is available.
    /// `PENDING` while the youngest producer has not yet computed it.
    reg_ready: [u64; NUM_REGS],
    /// Sequence number of the youngest dispatched producer per register.
    last_writer: [u64; NUM_REGS],
    dcache: SetAssocCache,
    stats: BackendStats,
    next_seq: u64,
    /// Dispatched-but-unresolved mispredicted branches; the per-cycle
    /// resolve scan is skipped while this is zero (the common case).
    pending_mispredicts: u32,
    /// Scratch for the issue loop's deferred wakeups `(from, producer,
    /// ready_at)`; persistent so the per-cycle tick never allocates.
    wake_buf: Vec<(usize, u64, u64)>,
    /// Bitmap of RUU entries in `Waiting` state — bit `k` covers the entry
    /// at deque index `k` (entry seqs are contiguous: dispatch appends,
    /// commit pops the front and shifts the map).  The issue scan and the
    /// wakeup broadcast walk set bits only: entries that issued or went to
    /// memory are never re-examined, and only `Waiting` entries can carry
    /// unresolved source tags.  Capacity is the map's width; construction
    /// rejects larger windows by name.
    waiting: u128,
    /// The subset of `waiting` whose sources still carry a `DEP` tag.  A
    /// blocked entry cannot issue until a wakeup patches its last tag, so
    /// the issue scan and [`next_event`](Self::next_event) visit only
    /// `waiting & !blocked`, and wakeups walk only `blocked`.
    blocked: u128,
}

/// Sentinel ready-time for values still being produced.
const PENDING: u64 = u64::MAX >> 1;

/// Tag bit marking a `src_time` slot as "waiting on producer seq" rather
/// than a concrete ready time.  Real cycle numbers and sequence numbers
/// both stay far below it.
const DEP: u64 = 1 << 63;

impl BackEnd {
    pub fn new(cfg: BackendConfig) -> Self {
        assert!(
            cfg.ruu_size <= 128,
            "BackendConfig.ruu_size must be <= 128 (the issue scan's \
             waiting-entry bitmap is 128 bits wide), got {}",
            cfg.ruu_size
        );
        BackEnd {
            ruu: VecDeque::with_capacity(cfg.ruu_size),
            reg_ready: [0; NUM_REGS],
            last_writer: [u64::MAX; NUM_REGS],
            dcache: SetAssocCache::new(cfg.dcache_capacity, cfg.dcache_line, cfg.dcache_assoc),
            stats: BackendStats::default(),
            next_seq: 0,
            pending_mispredicts: 0,
            waiting: 0,
            blocked: 0,
            wake_buf: Vec::with_capacity(cfg.width as usize),
            cfg,
        }
    }

    pub fn stats(&self) -> &BackendStats {
        &self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = BackendStats::default();
        self.dcache.reset_stats();
    }

    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Free RUU slots.
    pub fn free_slots(&self) -> usize {
        self.cfg.ruu_size - self.ruu.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ruu.is_empty()
    }

    /// Dispatch one instruction into the RUU.  The caller must check
    /// [`BackEnd::free_slots`] first.  Returns its sequence number.
    pub fn dispatch(
        &mut self,
        inst: &StaticInst,
        mem_addr: Option<Addr>,
        mispredict: bool,
    ) -> u64 {
        debug_assert!(self.ruu.len() < self.cfg.ruu_size);
        let seq = self.next_seq;
        self.next_seq += 1;
        // Capture source readiness as of dispatch (register rename):
        // either a concrete time, or the still-executing producer's seq.
        let mut src_time = [0u64; 2];
        for (k, src) in [inst.src1, inst.src2].into_iter().enumerate() {
            if let Some(r) = src.filter(|r| !r.is_zero()) {
                let t = self.reg_ready[r.index()];
                src_time[k] = if t == PENDING {
                    DEP | self.last_writer[r.index()]
                } else {
                    t
                };
            }
        }
        if let Some(d) = inst.dep_dest() {
            // The value is unavailable until this instruction executes.
            self.last_writer[d.index()] = seq;
            self.reg_ready[d.index()] = PENDING;
        }
        if mispredict {
            self.pending_mispredicts += 1;
        }
        let bit = 1u128 << self.ruu.len();
        self.waiting |= bit;
        if src_time.iter().any(|&t| t & DEP != 0) {
            self.blocked |= bit;
        }
        self.ruu.push_back(RuuEntry {
            seq,
            op: inst.op,
            dst: inst.dep_dest(),
            mem_addr,
            state: EState::Waiting,
            src_time,
            mispredict,
        });
        seq
    }

    /// Broadcast a finished producer to every blocked consumer.  Consumers
    /// always sit *behind* their producer (dependences are captured at
    /// in-order dispatch), so the walk starts at `from`; only blocked
    /// entries carry unresolved tags, so it visits set bits of `blocked`
    /// rather than every younger entry, and unblocks an entry once its
    /// last tag is patched.
    fn wakeup(
        ruu: &mut VecDeque<RuuEntry>,
        blocked: &mut u128,
        from: usize,
        producer: u64,
        at: u64,
    ) {
        let tag = DEP | producer;
        let mut bits = if from < 128 { (*blocked >> from) << from } else { 0 };
        while bits != 0 {
            let idx = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let e = &mut ruu[idx];
            for k in 0..2 {
                if e.src_time[k] == tag {
                    e.src_time[k] = at;
                }
            }
            if (e.src_time[0] | e.src_time[1]) & DEP == 0 {
                *blocked &= !(1u128 << idx);
            }
        }
    }

    /// A D-cache miss returned from the L2 system.
    pub fn on_completion(&mut self, c: &Completion) {
        let last_writer = self.last_writer;
        // Several loads can wait on one line request (MSHR merge).  Wakeup
        // interleaves safely with the scan: it only patches src_dep /
        // src_time, which the WaitMem match never reads.
        for i in 0..self.ruu.len() {
            let e = &mut self.ruu[i];
            if e.state != EState::WaitMem(c.id) {
                continue;
            }
            let at = c.ready_at + 1;
            e.state = EState::Done(at);
            let (seq, dst) = (e.seq, e.dst);
            if let Some(d) = dst {
                if last_writer[d.index()] == seq {
                    self.reg_ready[d.index()] = at;
                }
                Self::wakeup(&mut self.ruu, &mut self.blocked, i + 1, seq, at);
            }
        }
    }

    fn ready(e: &RuuEntry, now: u64) -> bool {
        e.src_time[0] <= now && e.src_time[1] <= now
    }

    /// One cycle: issue, then commit.
    pub fn tick(&mut self, now: u64, l2: &mut L2System) -> BackTick {
        // ---- Issue: oldest-first, up to width, respecting D-cache ports.
        //
        // Wakeups are deferred to after the scan: every issue completes at
        // now+1 or later (all execution latencies are >= 1), so a consumer
        // woken by an instruction issued this cycle could never itself
        // issue this cycle — deferral is bit-exact, and it lets the scan
        // hold one iterator instead of re-indexing the deque per entry.
        let mut issued = 0u32;
        let mut dports = self.cfg.dcache_ports;
        let width = self.cfg.width;
        let dcache_latency = self.cfg.dcache_latency as u64;
        let mut wake = std::mem::take(&mut self.wake_buf);
        wake.clear();
        // Walk only the unblocked Waiting entries, oldest first — the same
        // visit order as a full scan that skipped non-Waiting states (a
        // blocked entry's tagged source can never be `<= now`).
        let mut bits = self.waiting & !self.blocked;
        while issued < width && bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let e = &mut self.ruu[i];
            if !Self::ready(e, now) {
                continue;
            }
            let done_at = match e.op {
                OpClass::Load => {
                    if dports == 0 {
                        continue;
                    }
                    dports -= 1;
                    self.stats.loads += 1;
                    let addr = e.mem_addr.unwrap_or(0);
                    if self.dcache.lookup(addr) {
                        self.stats.dcache_hits += 1;
                        now + 1 + dcache_latency
                    } else {
                        self.stats.dcache_misses += 1;
                        let req = match l2.find_pending(addr) {
                            Some(r) => r,
                            None => l2.submit(addr, ReqClass::DCache, now + 1),
                        };
                        // Fill (write-allocate) now; dirty victims write
                        // back over the bus.
                        if let Some((victim, dirty)) = self.dcache.fill(addr) {
                            if dirty {
                                l2.submit_writeback(victim, now + 1);
                            }
                        }
                        e.state = EState::WaitMem(req);
                        self.waiting &= !(1u128 << i);
                        issued += 1;
                        // Destination stays PENDING until completion.
                        continue;
                    }
                }
                OpClass::Store => {
                    if dports == 0 {
                        continue;
                    }
                    dports -= 1;
                    self.stats.stores += 1;
                    let addr = e.mem_addr.unwrap_or(0);
                    if !self.dcache.lookup(addr) {
                        self.stats.dcache_misses += 1;
                        // Write-allocate: traffic only, the store itself
                        // retires through the store buffer.
                        if l2.find_pending(addr).is_none() {
                            l2.submit(addr, ReqClass::DCache, now + 1);
                        }
                        if let Some((victim, dirty)) = self.dcache.fill(addr) {
                            if dirty {
                                l2.submit_writeback(victim, now + 1);
                            }
                        }
                    } else {
                        self.stats.dcache_hits += 1;
                    }
                    self.dcache.set_dirty(addr);
                    now + 1
                }
                op => {
                    if op.is_cti() {
                        self.stats.branches += 1;
                    }
                    now + op.exec_latency() as u64
                }
            };
            e.state = EState::Done(done_at);
            self.waiting &= !(1u128 << i);
            if let Some(d) = e.dst {
                if self.last_writer[d.index()] == e.seq {
                    self.reg_ready[d.index()] = done_at;
                }
                wake.push((i + 1, e.seq, done_at));
            }
            issued += 1;
        }
        for &(from, seq, at) in &wake {
            Self::wakeup(&mut self.ruu, &mut self.blocked, from, seq, at);
        }
        self.wake_buf = wake;

        // ---- Resolve mispredicted branches the moment they finish.
        let mut resolved = None;
        if self.pending_mispredicts > 0 {
            for e in &self.ruu {
                if e.mispredict {
                    if let EState::Done(t) = e.state {
                        if t <= now + 1 {
                            resolved = Some(e.seq);
                        }
                    }
                    break; // only the oldest unresolved mispredict matters
                }
            }
            if resolved.is_some() {
                // Clear the flag so the redirect fires exactly once.
                for e in &mut self.ruu {
                    if Some(e.seq) == resolved {
                        e.mispredict = false;
                        self.pending_mispredicts -= 1;
                        break;
                    }
                }
            }
        }

        // ---- Commit: in order, up to width.
        let mut committed_now = 0u32;
        while committed_now < self.cfg.width {
            match self.ruu.front() {
                Some(e) => match e.state {
                    EState::Done(t) if t <= now => {
                        self.ruu.pop_front();
                        committed_now += 1;
                        self.stats.committed += 1;
                    }
                    _ => break,
                },
                None => break,
            }
        }
        // Committed entries were Done, never Waiting: shifting the bitmaps
        // down just re-anchors them at the new front.
        debug_assert_eq!(self.waiting & ((1u128 << committed_now) - 1), 0);
        self.waiting >>= committed_now;
        self.blocked >>= committed_now;
        if committed_now == 0 {
            self.stats.commit_stall_cycles += 1;
        }

        BackTick {
            committed_now,
            resolved_mispredict: resolved,
        }
    }

    /// Earliest cycle `>= now` at which [`tick`](Self::tick) does any
    /// work, assuming no L2 completion arrives first: an unblocked waiting
    /// entry's sources become ready, the commit head finishes, or the
    /// oldest unresolved mispredict reaches its resolve cycle (one before
    /// it finishes).  `u64::MAX` when only a completion can unstick it.
    pub fn next_event(&self, now: u64) -> u64 {
        let mut at = u64::MAX;
        let mut bits = self.waiting & !self.blocked;
        while bits != 0 {
            let e = &self.ruu[bits.trailing_zeros() as usize];
            bits &= bits - 1;
            at = at.min(e.src_time[0].max(e.src_time[1]));
            if at <= now {
                return now;
            }
        }
        if let Some(EState::Done(t)) = self.ruu.front().map(|e| e.state) {
            at = at.min(t);
        }
        if self.pending_mispredicts > 0 {
            if let Some(e) = self.ruu.iter().find(|e| e.mispredict) {
                if let EState::Done(t) = e.state {
                    at = at.min(t.saturating_sub(1));
                }
            }
        }
        at.max(now)
    }

    /// Credit `cycles` ticks that [`next_event`](Self::next_event) showed
    /// to be idle.
    pub fn skip_idle(&mut self, cycles: u64) {
        self.stats = self.stats_after_idle(cycles);
    }

    /// The statistics `cycles` idle ticks leave behind: each counts a
    /// commit stall, and nothing else.
    pub fn stats_after_idle(&self, cycles: u64) -> BackendStats {
        BackendStats {
            commit_stall_cycles: self.stats.commit_stall_cycles + cycles,
            ..self.stats
        }
    }

    /// Everything a tick can change except the per-cycle stall counter —
    /// the stepping oracle's evidence that a cycle made progress.
    #[cfg(debug_assertions)]
    pub(crate) fn progress_mark(&self) -> impl PartialEq + std::fmt::Debug {
        let stats = BackendStats {
            commit_stall_cycles: 0,
            ..self.stats
        };
        (stats, self.waiting, self.ruu.len(), self.pending_mispredicts)
    }

    /// Warm the D-cache directory (pre-measurement warm-up).
    pub fn warm_dcache(&mut self, addr: Addr) {
        self.dcache.fill(addr);
    }

    pub fn dcache_stats(&self) -> &prestage_cache::CacheStats {
        self.dcache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prestage_cache::L2Config;
    use prestage_cacti::TechNode;
    use prestage_isa::StaticInst;

    fn l2() -> L2System {
        L2System::new(L2Config::for_node(TechNode::T045))
    }

    fn alu(pc: Addr, dst: u8, src: u8) -> StaticInst {
        StaticInst::plain(
            pc,
            OpClass::IntAlu,
            Some(Reg::int(dst)),
            Some(Reg::int(src)),
            None,
        )
    }

    /// Run until the backend drains, returning cycles taken.
    fn drain(be: &mut BackEnd, l2sys: &mut L2System, from: u64, limit: u64) -> u64 {
        for now in from..from + limit {
            for c in l2sys.tick(now) {
                be.on_completion(&c);
            }
            be.tick(now, l2sys);
            if be.is_empty() {
                return now - from;
            }
        }
        panic!("backend did not drain in {limit} cycles");
    }

    #[test]
    fn independent_alus_commit_at_full_width() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        for i in 0..8u8 {
            be.dispatch(&alu(0x1000 + i as u64 * 4, i + 1, 30), None, false);
        }
        let cycles = drain(&mut be, &mut l2s, 0, 50);
        // 8 independent single-cycle ops, width 4: ~3-4 cycles.
        assert!(cycles <= 5, "took {cycles} cycles");
        assert_eq!(be.committed(), 8);
    }

    #[test]
    fn dependence_chain_serialises() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        // r1 <- r30; r2 <- r1; r3 <- r2 ... strict chain of 8.
        for i in 0..8u8 {
            let src = if i == 0 { 30 } else { i };
            be.dispatch(&alu(0x1000 + i as u64 * 4, i + 1, src), None, false);
        }
        let cycles = drain(&mut be, &mut l2s, 0, 50);
        assert!(cycles >= 8, "chain too fast: {cycles}");
    }

    #[test]
    fn load_miss_waits_for_memory() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        let ld = StaticInst::plain(
            0x1000,
            OpClass::Load,
            Some(Reg::int(1)),
            Some(Reg::int(30)),
            None,
        );
        be.dispatch(&ld, Some(0x4000_0000), false);
        // Dependent consumer.
        be.dispatch(&alu(0x1004, 2, 1), None, false);
        let cycles = drain(&mut be, &mut l2s, 0, 400);
        // L2 miss -> 24 + 200 cycles minimum.
        assert!(cycles > 220, "load miss too fast: {cycles}");
        assert_eq!(be.stats().dcache_misses, 1);

        // Second load to the same line: now a hit, fast.
        be.dispatch(&ld, Some(0x4000_0008), false);
        let cycles2 = drain(&mut be, &mut l2s, 400, 50);
        assert!(cycles2 < 10, "hit too slow: {cycles2}");
        assert_eq!(be.stats().dcache_hits, 1);
    }

    #[test]
    fn dcache_ports_limit_memory_ops() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        // 6 independent load hits; 2 ports -> at least 3 issue cycles.
        for i in 0..6u64 {
            be.warm_dcache(0x5000 + i * 8);
            let ld = StaticInst::plain(
                0x1000 + i * 4,
                OpClass::Load,
                Some(Reg::int(i as u8 + 1)),
                Some(Reg::int(30)),
                None,
            );
            be.dispatch(&ld, Some(0x5000 + i * 8), false);
        }
        let cycles = drain(&mut be, &mut l2s, 0, 50);
        assert!(cycles >= 4, "ports not enforced: {cycles}");
    }

    #[test]
    fn mispredict_resolution_reported_once() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        let br = StaticInst::cti(0x1000, OpClass::CondBranch, Some(0x2000));
        let seq = be.dispatch(&br, None, true);
        let mut seen = 0;
        for now in 0..10 {
            for c in l2s.tick(now) {
                be.on_completion(&c);
            }
            let t = be.tick(now, &mut l2s);
            if t.resolved_mispredict == Some(seq) {
                seen += 1;
            }
        }
        assert_eq!(seen, 1, "redirect must fire exactly once");
    }

    #[test]
    fn stores_mark_lines_dirty_and_write_back() {
        let cfg = BackendConfig {
            dcache_capacity: 128,
            dcache_assoc: 1,
            ..BackendConfig::default()
        };
        let mut be = BackEnd::new(cfg);
        let mut l2s = l2();
        let st = StaticInst::plain(
            0x1000,
            OpClass::Store,
            None,
            Some(Reg::int(1)),
            Some(Reg::int(2)),
        );
        be.dispatch(&st, Some(0x6000_0000), false);
        drain(&mut be, &mut l2s, 0, 50);
        // Conflicting store evicts the dirty line -> writeback traffic.
        be.dispatch(&st, Some(0x6000_0080), false);
        drain(&mut be, &mut l2s, 50, 50);
        for now in 100..120 {
            l2s.tick(now);
        }
        assert!(l2s.stats().writebacks >= 1);
    }

    #[test]
    fn next_event_waits_out_a_load_miss_at_the_head() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        let ld = StaticInst::plain(
            0x1000,
            OpClass::Load,
            Some(Reg::int(1)),
            Some(Reg::int(30)),
            None,
        );
        be.dispatch(&ld, Some(0x4000_0000), false);
        be.dispatch(&alu(0x1004, 2, 1), None, false);
        assert_eq!(be.next_event(0), 0, "the load can issue at once");
        be.tick(0, &mut l2s);
        // The head waits on memory and its consumer on the head: nothing
        // the back-end does alone can move it; the L2 system owns the wait.
        assert_eq!(be.next_event(1), u64::MAX);
        let due = 1 + 24 + 200;
        let mut out = Vec::new();
        for now in 1..due {
            assert_eq!(be.next_event(now), u64::MAX);
            l2s.tick_into(now, &mut out);
            assert!(out.is_empty());
            assert_eq!(be.tick(now, &mut l2s), BackTick::default());
        }
        assert_eq!(l2s.next_event(due), due);
        l2s.tick_into(due, &mut out);
        be.on_completion(&out[0]);
        // Data at due+1 both commits the load and readies its consumer.
        assert_eq!(be.next_event(due), due + 1);
        assert_eq!(be.tick(due, &mut l2s).committed_now, 0);
        assert_eq!(be.tick(due + 1, &mut l2s).committed_now, 1);
    }

    #[test]
    fn next_event_skips_blocked_entries_until_their_producer_issues() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        let mul = StaticInst::plain(
            0x1000,
            OpClass::IntMul,
            Some(Reg::int(1)),
            Some(Reg::int(30)),
            None,
        );
        be.dispatch(&mul, None, false);
        be.dispatch(&alu(0x1004, 2, 1), None, false);
        assert_eq!((be.waiting, be.blocked), (0b11, 0b10), "the consumer is blocked");
        be.tick(0, &mut l2s);
        // Issuing the 7-cycle multiply patched its consumer's tag into a
        // time: unblocked, and due exactly when the product is.
        assert_eq!((be.waiting, be.blocked), (0b10, 0));
        for now in 1..7 {
            assert_eq!(be.next_event(now), 7);
            let credited = be.stats_after_idle(1);
            be.tick(now, &mut l2s);
            assert_eq!(*be.stats(), credited);
        }
        let t = be.tick(7, &mut l2s);
        assert_eq!((t.committed_now, be.waiting), (1, 0), "head commits, consumer issues");
    }

    #[test]
    fn next_event_resolves_a_mispredict_one_cycle_before_it_finishes() {
        let mut be = BackEnd::new(BackendConfig::default());
        let mut l2s = l2();
        // A mispredict can sit on any instruction the predictor cut a
        // stream at; a multiply resolves at its Done cycle minus one.
        let mul = StaticInst::plain(
            0x1000,
            OpClass::IntMul,
            Some(Reg::int(1)),
            Some(Reg::int(30)),
            None,
        );
        let seq = be.dispatch(&mul, None, true);
        assert_eq!(be.tick(0, &mut l2s).resolved_mispredict, None);
        assert_eq!(be.next_event(1), 6);
        for now in 1..6 {
            assert_eq!(be.tick(now, &mut l2s), BackTick::default());
        }
        assert_eq!(be.tick(6, &mut l2s).resolved_mispredict, Some(seq));
        assert_eq!(be.next_event(7), 7, "then the commit");
    }

    #[test]
    fn ruu_capacity_enforced() {
        let mut be = BackEnd::new(BackendConfig::default());
        assert_eq!(be.free_slots(), 64);
        let mut l2s = l2();
        // Fill with a dependence chain so nothing commits quickly.
        be.dispatch(&alu(0x1000, 1, 30), None, false);
        for i in 1..64u64 {
            let s = (i % 29) as u8 + 1;
            be.dispatch(&alu(0x1000 + i * 4, (i % 29) as u8 + 2, s), None, false);
        }
        assert_eq!(be.free_slots(), 0);
        be.tick(0, &mut l2s);
        be.tick(1, &mut l2s);
        assert!(be.free_slots() > 0);
    }
}
