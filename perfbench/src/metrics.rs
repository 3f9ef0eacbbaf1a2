//! The declared metric lists and the per-layer ledger.

use crate::kernels;
use crate::report::{median, ratio, tail_quantile, Metric};
use crate::serve::ClientRun;
use crate::sweep::{capture_cell, parse_specs, Plan, Round, THREADS};
use crate::workloads::SetupTimes;
use prestage_sim::{harmonic_mean, SimStats};

/// End-to-end metrics and their units, printed by every untraced run in
/// this order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sweep_s", "s"),
    ("setup_s", "s"),
    ("minst_per_s", "Minst/s"),
    ("cell_ms.p50", "ms"),
    ("cell_ms.p90", "ms"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics and their units, printed by every traced run in this
/// order.  A layer a workload does not exercise reports 0 (serve metrics
/// outside `serve`).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("spec.parse_ms", "ms"),
    ("spec.emit_ms", "ms"),
    ("spec.artifact_kb", "KiB"),
    ("workload.build_ms", "ms"),
    ("workload.record_ms", "ms"),
    ("workload.trace_ms", "ms"),
    ("workload.streams", "count"),
    ("workload.ns_per_stream", "ns"),
    ("workload.trace_share", "ratio"),
    ("engine.self_ms", "ms"),
    ("engine.ns_per_inst", "ns"),
    ("engine.new_us", "us"),
    ("sim.cpi", "cycles/inst"),
    ("sim.hmean_ipc", "inst/cycle"),
    ("runner.busy_share", "ratio"),
    ("runner.tail_ms", "ms"),
    ("runner.serial_ms", "ms"),
    ("backend.commit_stall_share", "ratio"),
    ("backend.dcache_miss_ratio", "ratio"),
    ("backend.ns_per_inst", "ns"),
    ("bpred.accuracy", "ratio"),
    ("bpred.mpki", "1/kinst"),
    ("bpred.ns_per_predict", "ns"),
    ("core.one_cycle_share", "ratio"),
    ("core.fetch_l1_share", "ratio"),
    ("core.fetch_l2_share", "ratio"),
    ("core.fetch_mem_share", "ratio"),
    ("core.prefetch_requests", "count"),
    ("core.prefetches_issued", "count"),
    ("core.pb_alloc_stalls", "cycles"),
    ("core.blocks_rejected", "count"),
    ("core.prefetch_yield", "ratio"),
    ("core.ns_per_tick", "ns"),
    ("cache.bus_grants", "count"),
    ("cache.bus_wait_per_grant", "cycles"),
    ("cache.l2_miss_ratio", "ratio"),
    ("cache.l2_ns_per_req", "ns"),
    ("cache.l1_ns_per_access", "ns"),
    ("cache.itlb_ns_per_translate", "ns"),
    ("cache.itlb_miss_ratio", "ratio"),
    ("serve.submit_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.journal_kb", "KiB"),
    ("serve.hit_ms.p50", "ms"),
    ("serve.hit_ms.p99", "ms"),
    ("serve.jobs_per_s", "1/s"),
    ("ledger.attributed_share", "ratio"),
    ("trace.overhead", "s"),
];

/// Harmonic mean of every cell's IPC in a round (simulated).
pub fn hmean_ipc(r: &Round) -> f64 {
    let ipcs: Vec<f64> = r.cells.iter().map(|c| c.stats.ipc()).collect();
    harmonic_mean(&ipcs)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Counter sums over a round's cells.
#[derive(Default)]
struct Sums {
    cycles: u64,
    committed: u64,
    redirects: u64,
    commit_stall: u64,
    dcache_hits: u64,
    dcache_misses: u64,
    trained: u64,
    train_correct: u64,
    lines: u64,
    one_cycle_lines: u64,
    l1_lines: u64,
    l2_lines: u64,
    mem_lines: u64,
    pb_lines: u64,
    prefetch_requests: u64,
    prefetches_issued: u64,
    pb_alloc_stalls: u64,
    blocks_rejected: u64,
    grants: u64,
    wait_cycles: u64,
    l2_hits: u64,
    l2_misses: u64,
}

impl Sums {
    fn add(&mut self, s: &SimStats) {
        let f = &s.front;
        self.cycles += s.cycles;
        self.committed += s.committed;
        self.redirects += s.redirects;
        self.commit_stall += s.backend.commit_stall_cycles;
        self.dcache_hits += s.backend.dcache_hits;
        self.dcache_misses += s.backend.dcache_misses;
        self.trained += s.pred.trained;
        self.train_correct += s.pred.train_correct;
        self.lines += f.total_fetch_lines();
        self.one_cycle_lines += f.fetch_pb.lines + f.fetch_l0.lines;
        self.l1_lines += f.fetch_l1.lines;
        self.l2_lines += f.fetch_l2.lines;
        self.mem_lines += f.fetch_mem.lines;
        self.pb_lines += f.fetch_pb.lines;
        self.prefetch_requests += f.total_prefetch_requests();
        self.prefetches_issued += f.prefetches_issued;
        self.pb_alloc_stalls += f.pb_alloc_stalls;
        self.blocks_rejected += f.blocks_rejected;
        self.grants += s.bus.grants();
        self.wait_cycles += s.bus.wait_cycles;
        self.l2_hits += s.bus.l2_hits;
        self.l2_misses += s.bus.l2_misses;
    }
}

fn f(n: u64) -> f64 {
    n as f64
}

/// Median over rounds of a per-round value.
fn per_round(rounds: &[&Round], value: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| value(r)).collect::<Vec<_>>())
}

/// Time from the first worker going idle to the last cell finishing: the
/// sweep's tail, when only one worker still has work.  Each spec runs on a
/// pool of its own, so tails add up over the round's specs.
fn tail_ns(r: &Round) -> u64 {
    let mut total = 0;
    let specs = r.cells.iter().map(|c| c.spec).max().map_or(0, |s| s + 1);
    for s in 0..specs {
        let mut workers: Vec<(std::thread::ThreadId, u64)> = Vec::new();
        for c in r.cells.iter().filter(|c| c.spec == s) {
            match workers.iter_mut().find(|(w, _)| *w == c.worker) {
                Some((_, end)) => *end = (*end).max(c.end),
                None => workers.push((c.worker, c.end)),
            }
        }
        let last = workers.iter().map(|(_, e)| *e).max().unwrap_or(0);
        let first_idle = workers.iter().map(|(_, e)| *e).min().unwrap_or(last);
        total += last - first_idle;
    }
    total
}

/// The traced run's ledger.  `reference` is the run's reference round;
/// `untraced` and `traced` are its timed rounds of each kind; `new_ns` the
/// construction pass's `Engine::with_source` times.
pub fn per_layer(
    plan: &Plan,
    setups: &[SetupTimes],
    reference: &Round,
    untraced: &[&Round],
    traced: &[&Round],
    new_ns: &[u64],
    client: Option<&(ClientRun, u64)>,
) -> Result<Vec<Metric>, String> {
    let setup_ms = |pick: fn(&SetupTimes) -> u64| {
        median(
            &setups
                .iter()
                .map(|t| pick(t) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let mut sums = Sums::default();
    if reference.cells.is_empty() {
        return Err("the reference round failed; no ledger".to_string());
    }
    for c in &reference.cells {
        sums.add(&c.stats);
    }
    let all_cells = || traced.iter().flat_map(|r| &r.cells);
    let new_us: Vec<f64> = new_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let trace_ns: u64 = all_cells().map(|c| c.trace_ns).sum();
    let streams: u64 = all_cells().map(|c| c.streams).sum();
    let engine_self_ns: u64 = all_cells()
        .map(|c| c.wall_ns.saturating_sub(c.trace_ns))
        .sum();
    let cell_ns: u64 = all_cells().map(|c| c.wall_ns).sum();
    let insts: u64 = all_cells().map(|c| c.insts).sum();

    // Kernels over one sampled cell: the middle cell of the job list.
    let specs = parse_specs(&plan.spec_texts)?;
    let idx = reference.cells.len() / 2;
    let sample = &reference.cells[idx];
    let spec = &specs[sample.spec];
    let (stats, streams_captured) = capture_cell(plan, spec, sample.spec, sample.cell);
    if stats != sample.stats {
        return Err("the capturing source changed the sampled cell's results".to_string());
    }
    let cfg = spec.sim_config(sample.cell.preset, sample.cell.l1);
    let program = &plan.workloads[plan.bench_map[sample.spec][sample.cell.bench_idx]].program;
    let k = kernels::measure(&cfg, program, &streams_captured);
    let sample_self_ns = per_round(traced, |r| {
        r.cells
            .get(idx)
            .map_or(0.0, |c| f(c.wall_ns.saturating_sub(c.trace_ns)))
    });
    let whole_run = f(cfg.warmup_insts.saturating_add(cfg.measure_insts)) / f(cfg.measure_insts);
    let attributed_ns = whole_run
        * (f(stats.pred.predictions) * k.ns_per_predict
            + f(stats.committed) * k.backend_ns_per_inst
            + f(stats.cycles) * k.ns_per_tick
            + f(stats.bus.grants()) * k.l2_ns_per_req
            + f(stats.front.total_fetch_lines()) * k.l1_ns_per_access);

    let (c, journal) = match client {
        Some((c, j)) => (Some(c), *j),
        None => (None, 0),
    };
    let serve_ms = |pick: fn(&ClientRun) -> &Vec<f64>| c.map_or(0.0, |c| median(pick(c)));
    let hit_q = |q| c.and_then(|c| tail_quantile(&c.hit_ms, q)).unwrap_or(0.0);
    let hits = c.map_or(0, |c| c.hit_ms.len());
    let cold_s = c.map_or(0.0, |c| c.cold_ns.iter().sum::<u64>() as f64 / 1e9);

    Ok(vec![
        Metric::host("spec.parse_ms", setup_ms(|t| t.parse), "ms").with_samples(setups.len()),
        Metric::host(
            "spec.emit_ms",
            per_round(traced, |r| r.emit_ns as f64 / 1e6),
            "ms",
        ),
        Metric::host(
            "spec.artifact_kb",
            reference
                .artifacts
                .iter()
                .flatten()
                .map(String::len)
                .sum::<usize>() as f64
                / 1024.0,
            "KiB",
        ),
        Metric::host("workload.build_ms", setup_ms(|t| t.build), "ms").with_samples(setups.len()),
        Metric::host("workload.record_ms", setup_ms(|t| t.record), "ms").with_samples(setups.len()),
        Metric::host(
            "workload.trace_ms",
            per_round(traced, |r| {
                r.cells.iter().map(|c| c.trace_ns).sum::<u64>() as f64 / 1e6
            }),
            "ms",
        ),
        Metric::host(
            "workload.streams",
            per_round(traced, |r| f(r.cells.iter().map(|c| c.streams).sum())),
            "count",
        ),
        Metric::host(
            "workload.ns_per_stream",
            ratio(f(trace_ns), f(streams)),
            "ns",
        ),
        Metric::host(
            "workload.trace_share",
            ratio(f(trace_ns), f(cell_ns)),
            "ratio",
        ),
        Metric::host(
            "engine.self_ms",
            per_round(traced, |r| {
                r.cells
                    .iter()
                    .map(|c| c.wall_ns.saturating_sub(c.trace_ns))
                    .sum::<u64>() as f64
                    / 1e6
            }),
            "ms",
        ),
        Metric::host(
            "engine.ns_per_inst",
            ratio(f(engine_self_ns), f(insts)),
            "ns",
        ),
        Metric::host("engine.new_us", median(&new_us), "us").with_samples(new_us.len()),
        Metric::sim(
            "sim.cpi",
            ratio(f(sums.cycles), f(sums.committed)),
            "cycles/inst",
        ),
        Metric::sim("sim.hmean_ipc", hmean_ipc(reference), "inst/cycle"),
        Metric::host(
            "runner.busy_share",
            per_round(untraced, |r| {
                ratio(
                    r.cells.iter().map(|c| f(c.wall_ns)).sum(),
                    f(THREADS as u64) * f(r.wall_ns),
                )
            }),
            "ratio",
        ),
        Metric::host(
            "runner.tail_ms",
            per_round(untraced, |r| tail_ns(r) as f64 / 1e6),
            "ms",
        ),
        Metric::host(
            "runner.serial_ms",
            per_round(traced, |r| r.self_ns as f64 / 1e6),
            "ms",
        ),
        Metric::sim(
            "backend.commit_stall_share",
            ratio(f(sums.commit_stall), f(sums.cycles)),
            "ratio",
        ),
        Metric::sim(
            "backend.dcache_miss_ratio",
            ratio(
                f(sums.dcache_misses),
                f(sums.dcache_hits + sums.dcache_misses),
            ),
            "ratio",
        ),
        Metric::host("backend.ns_per_inst", k.backend_ns_per_inst, "ns"),
        Metric::sim(
            "bpred.accuracy",
            ratio(f(sums.train_correct), f(sums.trained)),
            "ratio",
        ),
        Metric::sim(
            "bpred.mpki",
            1000.0 * ratio(f(sums.redirects), f(sums.committed)),
            "1/kinst",
        ),
        Metric::host("bpred.ns_per_predict", k.ns_per_predict, "ns"),
        Metric::sim(
            "core.one_cycle_share",
            ratio(f(sums.one_cycle_lines), f(sums.lines)),
            "ratio",
        ),
        Metric::sim(
            "core.fetch_l1_share",
            ratio(f(sums.l1_lines), f(sums.lines)),
            "ratio",
        ),
        Metric::sim(
            "core.fetch_l2_share",
            ratio(f(sums.l2_lines), f(sums.lines)),
            "ratio",
        ),
        Metric::sim(
            "core.fetch_mem_share",
            ratio(f(sums.mem_lines), f(sums.lines)),
            "ratio",
        ),
        Metric::sim("core.prefetch_requests", f(sums.prefetch_requests), "count"),
        Metric::sim("core.prefetches_issued", f(sums.prefetches_issued), "count"),
        Metric::sim("core.pb_alloc_stalls", f(sums.pb_alloc_stalls), "cycles"),
        Metric::sim("core.blocks_rejected", f(sums.blocks_rejected), "count"),
        Metric::sim(
            "core.prefetch_yield",
            ratio(f(sums.pb_lines), f(sums.prefetch_requests)),
            "ratio",
        ),
        Metric::host("core.ns_per_tick", k.ns_per_tick, "ns"),
        Metric::sim("cache.bus_grants", f(sums.grants), "count"),
        Metric::sim(
            "cache.bus_wait_per_grant",
            ratio(f(sums.wait_cycles), f(sums.grants)),
            "cycles",
        ),
        Metric::sim(
            "cache.l2_miss_ratio",
            ratio(f(sums.l2_misses), f(sums.l2_hits + sums.l2_misses)),
            "ratio",
        ),
        Metric::host("cache.l2_ns_per_req", k.l2_ns_per_req, "ns"),
        Metric::host("cache.l1_ns_per_access", k.l1_ns_per_access, "ns"),
        Metric::host("cache.itlb_ns_per_translate", k.itlb_ns_per_translate, "ns"),
        Metric::sim("cache.itlb_miss_ratio", k.itlb_miss_ratio, "ratio"),
        Metric::host("serve.submit_ms", serve_ms(|c| &c.submit_ms), "ms"),
        Metric::host("serve.fetch_ms", serve_ms(|c| &c.fetch_ms), "ms"),
        Metric::sim(
            "serve.hit_ratio",
            c.map_or(0.0, |c| ratio(f(c.cached_cells), f(c.cells))),
            "ratio",
        ),
        Metric::host("serve.journal_kb", journal as f64 / 1024.0, "KiB"),
        Metric::host("serve.hit_ms.p50", hit_q(0.5), "ms").with_samples(hits),
        Metric::host("serve.hit_ms.p99", hit_q(0.99), "ms").with_samples(hits),
        Metric::host(
            "serve.jobs_per_s",
            c.map_or(0.0, |c| ratio(f(c.jobs), cold_s)),
            "1/s",
        ),
        Metric::host(
            "ledger.attributed_share",
            ratio(attributed_ns, sample_self_ns),
            "ratio",
        ),
        Metric::host(
            "trace.overhead",
            per_round(traced, |r| r.wall_ns as f64 / 1e9)
                - per_round(untraced, |r| r.wall_ns as f64 / 1e9),
            "s",
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{valid_name, valid_unit};
    use prestage_json::Json;

    /// The metric lists the harness prints are exactly the ones
    /// `BENCHMARK.json` declares, with the same units, in the same order.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let v = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            let field = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            v.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        for (n, u) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{u}");
        }
    }
}
