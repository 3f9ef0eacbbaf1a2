//! Per-layer host cost: replay one sampled cell's captured committed stream
//! through each layer's public API on its own and time it.
//!
//! Each kernel feeds a layer the inputs it would see in that cell, but
//! outside the engine, so the layers do not interact (a kernel's L2 sees
//! only its own requests).  The resulting ns/op times the cell's op counts
//! approximate the engine's self time; how closely is
//! `ledger.attributed_share`, reported and never gated on.

use crate::spans::Capture;
use prestage_bpred::{FetchBlockPredictor, StreamPredictor};
use prestage_cache::{Completion, ITlb, ITlbConfig, L2Config, L2System, ReqClass, SetAssocCache};
use prestage_core::{
    ClgpPrefetcher, FdpPrefetcher, FrontEnd, FrontendConfig, InstrPrefetcher, ManaPrefetcher,
    NextLinePrefetcher, NoPrefetcher, PrefetcherKind, ProgMapPrefetcher,
};
use prestage_isa::Program;
use prestage_sim::{BackEnd, SimConfig};
use prestage_workload::DynInst;
use std::hint::black_box;

/// Minimum timed work per kernel: short passes repeat until this much host
/// time has accumulated, so each ns/op rests on many operations.
const MIN_NS: u64 = 40_000_000;

pub struct KernelCosts {
    pub ns_per_predict: f64,
    pub backend_ns_per_inst: f64,
    pub ns_per_tick: f64,
    pub l2_ns_per_req: f64,
    pub l1_ns_per_access: f64,
    pub itlb_ns_per_translate: f64,
    pub itlb_miss_ratio: f64,
}

/// Repeat `pass` (which returns its op count) until [`MIN_NS`] elapsed;
/// returns ns per op.
fn time_per_op(mut pass: impl FnMut() -> u64) -> f64 {
    let t0 = crate::clock::now();
    let mut ops = 0u64;
    while crate::clock::since(t0) < MIN_NS || ops == 0 {
        ops += pass();
    }
    crate::clock::since(t0) as f64 / ops.max(1) as f64
}

/// Distinct consecutive fetch-line addresses of the captured streams.
fn fetch_lines(streams: &Capture, line_bytes: u64) -> Vec<u64> {
    let mut lines = Vec::new();
    for (_, insts) in streams {
        for i in insts {
            let line = i.pc & !(line_bytes - 1);
            if lines.last() != Some(&line) {
                lines.push(line);
            }
        }
    }
    lines
}

pub fn measure(cfg: &SimConfig, program: &Program, streams: &Capture) -> KernelCosts {
    let line_bytes = cfg.frontend.line_bytes;
    let lines = fetch_lines(streams, line_bytes);
    let insts: Vec<DynInst> = streams
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    let l2_cfg = L2Config::for_node(cfg.frontend.tech);

    let ns_per_predict = time_per_op(|| {
        let mut pred = StreamPredictor::paper_default();
        for (s, _) in streams {
            let tok = pred.token(s.start);
            let p = pred.predict(s.start, program);
            pred.train_with_token(&tok, s, p.stream.same_flow(s));
        }
        streams.len() as u64
    });

    let backend_ns_per_inst = time_per_op(|| backend_pass(cfg, program, &insts, l2_cfg));

    let ns_per_tick = time_per_op(|| match cfg.frontend.prefetcher {
        PrefetcherKind::None => frontend_pass::<NoPrefetcher>(cfg.frontend, streams, l2_cfg),
        PrefetcherKind::NextLine => {
            frontend_pass::<NextLinePrefetcher>(cfg.frontend, streams, l2_cfg)
        }
        PrefetcherKind::Fdp => frontend_pass::<FdpPrefetcher>(cfg.frontend, streams, l2_cfg),
        PrefetcherKind::Clgp => frontend_pass::<ClgpPrefetcher>(cfg.frontend, streams, l2_cfg),
        PrefetcherKind::Mana => frontend_pass::<ManaPrefetcher>(cfg.frontend, streams, l2_cfg),
        PrefetcherKind::ProgMap => {
            frontend_pass::<ProgMapPrefetcher>(cfg.frontend, streams, l2_cfg)
        }
    });

    let l2_ns_per_req = time_per_op(|| {
        let mut l2 = L2System::new(l2_cfg);
        let mut done = Vec::new();
        let mut now = 0;
        for batch in lines.chunks(16) {
            for &line in batch {
                l2.submit(line, ReqClass::IFetch, now);
            }
            while l2.outstanding() > 0 {
                l2.tick_into(now, &mut done);
                now += 1;
            }
        }
        lines.len() as u64
    });

    let l1_ns_per_access = time_per_op(|| {
        let mut l1 = SetAssocCache::new(
            cfg.frontend.l1_capacity,
            line_bytes as usize,
            cfg.frontend.l1_assoc,
        );
        for &line in &lines {
            if !l1.lookup(line) {
                l1.fill(line);
            }
        }
        black_box(l1.stats().hits);
        lines.len() as u64
    });

    let tlb_cfg = cfg.frontend.itlb.unwrap_or_else(ITlbConfig::default_config);
    let mut miss_ratio = 0.0;
    let itlb_ns_per_translate = time_per_op(|| {
        let mut tlb = ITlb::new(&tlb_cfg);
        for (now, &line) in lines.iter().enumerate() {
            black_box(tlb.translate(line, now as u64));
        }
        let st = tlb.stats();
        miss_ratio = st.misses as f64 / (st.hits + st.misses).max(1) as f64;
        lines.len() as u64
    });

    KernelCosts {
        ns_per_predict,
        backend_ns_per_inst,
        ns_per_tick,
        l2_ns_per_req,
        l1_ns_per_access,
        itlb_ns_per_translate,
        itlb_miss_ratio: miss_ratio,
    }
}

/// Dispatch every captured instruction into a fresh RUU, `width` per cycle,
/// ticking the back-end (and the L2 its D-cache misses go to) until it
/// drains.  Returns the instruction count.
fn backend_pass(cfg: &SimConfig, program: &Program, insts: &[DynInst], l2_cfg: L2Config) -> u64 {
    let mut be = BackEnd::new(cfg.backend);
    let mut l2 = L2System::new(l2_cfg);
    let mut done: Vec<Completion> = Vec::new();
    let width = cfg.backend.width as usize;
    let mut next = 0;
    let mut now = 0u64;
    let cap = 1_000 * insts.len() as u64 + 10_000;
    while (next < insts.len() || !be.is_empty()) && now < cap {
        l2.tick_into(now, &mut done);
        for c in &done {
            if c.class == ReqClass::DCache {
                be.on_completion(c);
            }
        }
        black_box(be.tick(now, &mut l2));
        let mut slots = width.min(be.free_slots());
        while slots > 0 && next < insts.len() {
            let d = &insts[next];
            let st = program.block(d.block).insts[d.idx as usize];
            be.dispatch(&st, d.mem_addr, false);
            next += 1;
            slots -= 1;
        }
        now += 1;
    }
    insts.len() as u64
}

/// Push every captured stream into a fresh front-end as a fetch block and
/// tick it until the queue drains.  Returns the cycles ticked.
fn frontend_pass<P: InstrPrefetcher>(
    cfg: FrontendConfig,
    streams: &Capture,
    l2_cfg: L2Config,
) -> u64 {
    let mut fe = FrontEnd::<P>::new(cfg);
    let mut l2 = L2System::new(l2_cfg);
    let mut done: Vec<Completion> = Vec::new();
    let mut out = Vec::new();
    let mut next = 0;
    let mut now = 0u64;
    let cap = 1_000 * streams.len() as u64 + 10_000;
    while (next < streams.len() || !fe.queue().is_empty()) && now < cap {
        l2.tick_into(now, &mut done);
        for c in &done {
            fe.on_completion(c);
        }
        out.clear();
        fe.tick(now, &mut l2, 2 * cfg.fetch_width, &mut out);
        if next < streams.len() && fe.has_queue_space() {
            let s = &streams[next].0;
            if fe.push_block(next as u64, s.start, s.len.max(1)) {
                next += 1;
            }
        }
        now += 1;
    }
    now
}
