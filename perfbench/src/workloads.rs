//! The four workloads: which specs each one sweeps, and their set-up.
//!
//! Why each exists (the benchmark doc has the long form):
//! * `stall` — idle-heavy profiles, so per-cycle engine cost and bus/L2
//!   waiting dominate; a quiescence-skipping change must show here.
//! * `busy` — high-IPC profiles where every cycle does fetch, prefetch,
//!   predict and RUU work, and trace generation has its largest share; a
//!   clock-skipping change should leave it flat.
//! * `mech-tlb` — the only workload running the i-TLB, the MANA/program-map
//!   tables and trace decode with CRC checks (traces recorded in set-up).
//! * `serve` — the only workload touching the daemon's journal, its
//!   content-addressed store and the frame protocol.

use crate::spans::SpanLog;
use crate::sweep::{parse_specs, Plan};
use prestage_cacti::TechNode;
use prestage_core::{ITlbConfig, PrefetcherKind};
use prestage_serve::sweep_id;
use prestage_sim::{ConfigPreset, ExperimentSpec, TraceSource, L1_SIZES};
use prestage_workload::{build, record_trace, Workload, DEFAULT_CHUNK_INSTS};
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Stall,
    Busy,
    MechTlb,
    Serve,
}

impl Kind {
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "stall" => Some(Kind::Stall),
            "busy" => Some(Kind::Busy),
            "mech-tlb" => Some(Kind::MechTlb),
            "serve" => Some(Kind::Serve),
            _ => None,
        }
    }
}

/// Seeds that change simulated results.  They are fixed by default so every
/// run of a workload produces the same artifacts; `--seed` changes none of
/// them.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub workload: u64,
    pub exec: u64,
    pub serve_sequence: u64,
}

/// Figure 6's presets.
const FIG6: [ConfigPreset; 3] = [
    ConfigPreset::BasePipelined,
    ConfigPreset::FdpL0Pb16,
    ConfigPreset::ClgpL0Pb16,
];
const STALL_BENCH: [&str; 4] = ["gcc", "mcf", "perlbmk", "twolf"];
const BUSY_BENCH: [&str; 4] = ["gzip", "eon", "crafty", "gap"];
/// The largest-code profiles: the ones whose fetch footprint stresses the
/// i-TLB and the record-and-replay tables.
const MECH_BENCH: [&str; 4] = ["gcc", "vortex", "perlbmk", "eon"];
const MECH_L1: [usize; 5] = [1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10];
const SERVE_BENCH: [&str; 6] = ["gzip", "gcc", "crafty", "twolf", "eon", "mcf"];

/// Warm-up stays on in every cell so modelled caches are filled before
/// statistics are collected.
const WARMUP: u64 = 20_000;
const MEASURE: u64 = 80_000;
/// Serve cells are shorter: the workload is about the daemon, not cells.
const SERVE_WARMUP: u64 = 10_000;
const SERVE_MEASURE: u64 = 40_000;
/// The serve client's cold sequence has at least this many sweeps and
/// cells (the in-process reference run needs 100+ cells for `cell_ms.p90`).
const SERVE_SWEEPS: usize = 12;
const SERVE_MIN_CELLS: usize = 120;

/// splitmix64: the serve sequence's only randomness, so its seed fixes
/// every choice.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e9b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn base_spec(seeds: Seeds, bench: &[&str]) -> ExperimentSpec {
    ExperimentSpec {
        presets: FIG6.to_vec(),
        tech: TechNode::T045,
        l1_sizes: L1_SIZES.to_vec(),
        bench: Some(bench.iter().map(|b| b.to_string()).collect()),
        warmup_insts: WARMUP,
        measure_insts: MEASURE,
        workload_seed: seeds.workload,
        exec_seed: seeds.exec,
        threads: Some(crate::sweep::THREADS),
        ..ExperimentSpec::default()
    }
}

/// The specs a workload sweeps.  `trace_dir` is where `mech-tlb` records
/// and replays its traces.
pub fn specs(kind: Kind, seeds: Seeds, trace_dir: &Path) -> Vec<ExperimentSpec> {
    match kind {
        Kind::Stall => vec![base_spec(seeds, &STALL_BENCH)],
        Kind::Busy => vec![base_spec(seeds, &BUSY_BENCH)],
        Kind::MechTlb => PrefetcherKind::all()
            .into_iter()
            .map(|mech| ExperimentSpec {
                presets: vec![ConfigPreset::Fdp],
                l1_sizes: MECH_L1.to_vec(),
                prefetcher: Some(mech),
                itlb: Some(ITlbConfig::default_config()),
                trace: Some(TraceSource {
                    dir: trace_dir.display().to_string(),
                }),
                ..base_spec(seeds, &MECH_BENCH)
            })
            .collect(),
        Kind::Serve => serve_sequence(seeds),
    }
}

/// The serve client's seeded sequence of overlapping sub-grid sweeps:
/// random preset subsets of Figure 6, windows of the L1 axis and bench
/// subsets, so later sweeps find some of their cells already cached.
fn serve_sequence(seeds: Seeds) -> Vec<ExperimentSpec> {
    let mut rng = seeds.serve_sequence;
    let mut out: Vec<ExperimentSpec> = Vec::new();
    let mut cells = 0;
    while out.len() < SERVE_SWEEPS || cells < SERVE_MIN_CELLS {
        let mask = 1 + splitmix(&mut rng) % 7;
        let presets: Vec<ConfigPreset> = FIG6
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, p)| *p)
            .collect();
        let start = (splitmix(&mut rng) % L1_SIZES.len() as u64) as usize;
        let len = 2 + (splitmix(&mut rng) % 3) as usize;
        let l1_sizes = L1_SIZES[start..(start + len).min(L1_SIZES.len())].to_vec();
        let n_bench = 2 + (splitmix(&mut rng) % 2) as usize;
        let picks = shuffled(SERVE_BENCH.len(), splitmix(&mut rng));
        let mut bench: Vec<String> = Vec::new();
        for &p in picks.iter().take(n_bench) {
            bench.push(SERVE_BENCH[p].to_string());
        }
        let spec = ExperimentSpec {
            presets,
            l1_sizes,
            bench: Some(bench),
            warmup_insts: SERVE_WARMUP,
            measure_insts: SERVE_MEASURE,
            threads: None,
            ..base_spec(seeds, &[])
        };
        if out.iter().all(|s| sweep_id(s) != sweep_id(&spec)) {
            cells += spec.presets.len() * spec.l1_sizes.len() * n_bench;
            out.push(spec);
        }
    }
    out
}

/// Host time of one set-up's steps, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub total: u64,
    pub parse: u64,
    pub build: u64,
    pub record: u64,
}

/// Parse and validate the specs, build every workload they name and, for
/// replaying specs, record the traces.  `dir` must be fresh.
pub fn setup(
    kind: Kind,
    seeds: Seeds,
    dir: &Path,
    log: Option<&SpanLog>,
    parent: Option<u64>,
) -> Result<(Plan, SetupTimes), String> {
    let trace_dir = dir.join("traces");
    let spec_texts: Vec<String> = specs(kind, seeds, &trace_dir)
        .iter()
        .map(|s| s.to_json())
        .collect();
    let span = |name, t0, t1| {
        if let Some(log) = log {
            log.record(log.new_id(), parent, name, None, t0, t1);
        }
    };

    let t0 = crate::clock::now();
    let specs = parse_specs(&spec_texts)?;
    let t_parsed = crate::clock::now();
    span("spec.parse", t0, t_parsed);

    let mut workloads: Vec<Workload> = Vec::new();
    let mut bench_map = Vec::with_capacity(specs.len());
    for spec in &specs {
        let mut map = Vec::new();
        for profile in spec.bench_profiles()? {
            let idx = match workloads
                .iter()
                .position(|w| w.profile.name == profile.name)
            {
                Some(i) => i,
                None => {
                    workloads.push(build(&profile, spec.workload_seed));
                    workloads.len() - 1
                }
            };
            map.push(idx);
        }
        bench_map.push(map);
    }
    let t_built = crate::clock::now();
    span("workload.build", t_parsed, t_built);

    for (spec, map) in specs
        .iter()
        .zip(&bench_map)
        .filter(|(s, _)| s.trace.is_some())
    {
        std::fs::create_dir_all(&trace_dir)
            .map_err(|e| format!("cannot create {}: {e}", trace_dir.display()))?;
        let paths = spec.trace_paths()?.unwrap_or_default();
        for (path, &wi) in paths.iter().zip(map) {
            if path.exists() {
                continue; // every mechanism replays the same per-bench trace
            }
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            let mut out = std::io::BufWriter::new(file);
            record_trace(
                &mut out,
                &workloads[wi],
                spec.exec_seed,
                spec.trace_record_insts(),
                DEFAULT_CHUNK_INSTS,
            )
            .and_then(|_| out.flush())
            .map_err(|e| format!("cannot record {}: {e}", path.display()))?;
        }
    }
    let t_recorded = crate::clock::now();
    if kind == Kind::MechTlb {
        span("workload.record", t_built, t_recorded);
    }

    let times = SetupTimes {
        total: t_recorded - t0,
        parse: t_parsed - t0,
        build: t_built - t_parsed,
        record: t_recorded - t_built,
    };
    Ok((
        Plan {
            spec_texts,
            workloads,
            bench_map,
        },
        times,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds() -> Seeds {
        Seeds {
            workload: 42,
            exec: 42,
            serve_sequence: 11,
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(108, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..108).collect::<Vec<_>>());
        assert_eq!(a, shuffled(108, 7));
        assert_ne!(a, shuffled(108, 8));
    }

    #[test]
    fn workload_grids_have_the_documented_shapes() {
        let dir = Path::new("traces");
        let cells = |k| -> usize {
            specs(k, seeds(), dir)
                .iter()
                .map(|s| s.presets.len() * s.l1_sizes.len() * s.bench.as_ref().map_or(0, Vec::len))
                .sum()
        };
        assert_eq!(cells(Kind::Stall), 108);
        assert_eq!(cells(Kind::Busy), 108);
        assert_eq!(cells(Kind::MechTlb), 6 * 5 * 4);
        assert!(cells(Kind::Serve) >= SERVE_MIN_CELLS);
        for k in [Kind::Stall, Kind::Busy, Kind::MechTlb, Kind::Serve] {
            for s in specs(k, seeds(), dir) {
                s.validate().expect("workload specs validate");
                assert!(s.warmup_insts > 0, "warm-up stays on in every cell");
            }
        }
    }

    #[test]
    fn serve_sequence_is_seeded_and_overlapping() {
        let a = serve_sequence(seeds());
        assert_eq!(a, serve_sequence(seeds()));
        assert_ne!(
            a,
            serve_sequence(Seeds {
                serve_sequence: 12,
                ..seeds()
            })
        );
        // Some cell appears in two sweeps, so the daemon's cell cache is hit.
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0;
        for s in &a {
            for p in &s.presets {
                for l1 in &s.l1_sizes {
                    for b in s.bench.as_ref().expect("explicit bench list") {
                        if !seen.insert((p.id(), *l1, b.clone())) {
                            repeats += 1;
                        }
                    }
                }
            }
        }
        assert!(repeats > 0);
    }
}
